"""Empty-corpus robustness for the round-3 third/fourth/fifth-wave ops.

Empty partitions and empty filter results are routine at 100-TB scale;
every operator must return a schema-stable empty result, not crash.
"""
import numpy as np
import pyarrow as pa
import ray.data as rd


def _empty_docs():
    return rd.from_arrow(pa.schema(
        [("doc_id", pa.int64()), ("text", pa.string()),
         ("lang", pa.string()), ("n_chars", pa.int64())]).empty_table())


def test_empty_sampling_family(ray_session):
    from h3ray.ops.sample import (cap_per_group, repeat_by_group,
                                  stratified_sample)

    e = _empty_docs()
    assert stratified_sample(e, "doc_id", "lang", {"en": 100}).count() == 0
    assert repeat_by_group(e, "lang", {"en": 2}).count() == 0
    assert cap_per_group(e, "lang", "doc_id", k=3).count() == 0


def test_empty_scan_and_pack(ray_session):
    from h3ray.ops.scan import global_exclusive_cumsum, pack_sequences

    e = _empty_docs()
    assert global_exclusive_cumsum(e, "doc_id", "n_chars").count() == 0
    assert pack_sequences(e, "doc_id", "n_chars", budget=10).count() == 0


def test_empty_text_stages(ray_session):
    from h3ray.text.analysis import (quality_filter_stage, redact_stage,
                                     repetition_stage)
    from h3ray.text.dedup import contamination_flags, near_dedup

    e = _empty_docs()
    assert e.map_batches(quality_filter_stage(),
                         batch_format="pyarrow").count() == 0
    assert e.map_batches(redact_stage(),
                         batch_format="pyarrow").count() == 0
    assert e.map_batches(repetition_stage(),
                         batch_format="pyarrow").count() == 0
    assert contamination_flags(e, e).count() == 0
    assert near_dedup(e).count() == 0


def test_empty_driver_merged_aggregates(ray_session):
    from h3ray.ops.reduce import (combine, grouped_mode,
                                  grouped_string_agg_distinct, pivot_counts,
                                  profile_numeric)

    e = _empty_docs()
    assert grouped_mode(e, "lang", "text").num_rows == 0
    assert grouped_string_agg_distinct(e, "lang", "text").num_rows == 0
    assert pivot_counts(e, "lang", "doc_id", [0, 1]).num_rows == 0
    prof = profile_numeric(e, ["doc_id", "n_chars"])
    assert prof.num_rows in (0, 2)  # no batches -> no combiner rows
    # combine: the explicit partial schema drives the empty result, and
    # finish still runs on it.
    out = combine(
        e, "lang", count="n", sums=("n_chars",), maxs=("doc_id",),
        finish=lambda g: g.append_column(
            "mean_chars", pa.array([None] * g.num_rows, pa.float64())),
        schema=pa.schema([("lang", pa.string()), ("n", pa.int64()),
                          ("n_chars", pa.int64()), ("doc_id", pa.int64())]))
    assert out.num_rows == 0
    assert out.schema == pa.schema(
        [("lang", pa.string()), ("n", pa.int64()), ("n_chars", pa.int64()),
         ("doc_id", pa.int64()), ("mean_chars", pa.float64())])


def test_empty_tables_wave34_queries(ray_session, tmp_path):
    """Every round-4 wave-3/4 driver query returns a schema-stable empty
    result over fully-empty input tables (join outputs keep their schema
    via the typed empty seed in ops.join). A projected or UDF-mapped
    empty dataset has no block and so no Ray schema; orders_cube,
    docs_tfidf_topk and the four join queries after it declare theirs
    with ops.join.seed_schema, and docs_dup_ngram_fraction and
    pages_snapshot_diff return a typed empty table when the documents
    table has no rows. orders_cube's ()-grouping row keeps the
    string group columns of a non-empty run."""
    import pyarrow.parquet as pq

    import __ray_entry__ as entry

    for t in ["documents", "orders", "customer", "supplier", "nation",
              "lineitem", "part", "events", "embeddings"]:
        s = pq.read_schema(f"/root/testdata/sf0.001/{t}.parquet")
        pq.write_table(s.empty_table(), tmp_path / f"{t}.parquet")

    q = entry.queries()
    typed = {"orders_cube", "docs_tfidf_topk", "revenue_local_suppliers",
             "orders_bloom_pruned_revenue", "lineitem_priority_counts",
             "nation_supplier_customer_full", "docs_dup_ngram_fraction",
             "pages_snapshot_diff"}
    for name in ["order_priority_check", "nation_pair_volume",
                 "customer_order_dist", "top_supplier_revenue",
                 "disjunct_brand_revenue", "idle_rich_customers",
                 "pages_domain_stats", "docs_dup_ngram_fraction",
                 "pages_snapshot_diff", "sole_late_supplier_counts",
                 "orders_cube", "docs_tfidf_topk",
                 "revenue_local_suppliers", "orders_bloom_pruned_revenue",
                 "lineitem_priority_counts",
                 "nation_supplier_customer_full"]:
        out = q[name](str(tmp_path))
        n = out.num_rows if isinstance(out, pa.Table) else out.count()
        # disjunct_brand_revenue mirrors SQL SUM() over zero rows: one
        # NULL row is also a legal empty result.
        assert n <= 1, name
        schema = out.schema if isinstance(out, pa.Table) \
            else getattr(out.schema(), "base_schema", None)
        if name in typed:
            assert schema is not None, name
        if name == "orders_cube":
            assert schema.field("o_orderstatus").type == pa.string()
            assert schema.field("o_orderpriority").type == pa.string()
        if name == "docs_tfidf_topk":
            assert schema.field("doc_id").type == pa.int64()
            assert schema.field("term").type == pa.string()
        if name == "docs_dup_ngram_fraction":
            assert schema.names == ["doc_id", "n_shingles", "n_dup"]
            assert set(schema.types) == {pa.int64()}
        if name == "pages_snapshot_diff":
            assert schema.field("status").type == pa.string()


def test_empty_rollup_cube_sql_semantics(ray_session):
    """SQL GROUP BY ROLLUP/CUBE over zero rows returns the single
    ()-grouping row with COUNT 0 / SUM NULL — not zero rows. Also
    exercises revenue_local_suppliers with an empty supplier table
    (missing suppkeys must drop, never IndexError or inherit a nation)."""
    import pyarrow as pa

    from h3ray.ops.reduce import cube_counts, rollup_counts

    e = rd.from_arrow(pa.table({"a": pa.array([], pa.string()),
                                "b": pa.array([], pa.int64()),
                                "v": pa.array([], pa.int64())}))
    for fn in (rollup_counts, cube_counts):
        t = fn(e, "a", "b", "v")
        assert t.num_rows == 1
        assert t["num_rows"][0].as_py() == 0
        assert t["sum_value"][0].as_py() is None


def test_empty_supplier_local_revenue(ray_session, tmp_path):
    """An empty supplier table with non-empty lineitem: every line drops
    at the broadcast probe (inner-join semantics), result is empty."""
    import shutil

    import pyarrow.parquet as pq

    import __ray_entry__ as entry

    src = "/root/testdata/sf0.001"
    for t in ["documents", "orders", "customer", "nation", "lineitem",
              "part", "events", "embeddings"]:
        shutil.copy(f"{src}/{t}.parquet", tmp_path / f"{t}.parquet")
    s = pq.read_schema(f"{src}/supplier.parquet")
    pq.write_table(s.empty_table(), tmp_path / "supplier.parquet")
    out = entry.queries()["revenue_local_suppliers"](str(tmp_path))
    n = out.num_rows if isinstance(out, pa.Table) else out.count()
    assert n == 0


def _schema(*fields):
    return pa.schema([(n, getattr(pa, t)()) for n, t in fields])


def test_empty_combine_roots(ray_session, tmp_path):
    """Every library root that runs on ops.reduce.combine keeps its
    result columns and Arrow types over an empty Dataset, both one
    empty block and a filter that drops every row. The exact-moment
    reducers type their key as the input schema does; a filter that drops
    every row leaves no schema, so there the key is typed null. The two
    global scans keep
    the input's columns plus their int64 output. detect_hot_keys returns
    empty int64 keys and float64 shares."""
    import pyarrow.parquet as pq

    import __ray_entry__ as entry
    from h3ray.ops import graph, reduce, scan, sketch, skew, window
    from h3ray.pipelines import ann, geotag, relational
    from h3ray.pipelines import raster as rs

    ts = pa.array(np.array(["2024-01-01"], "datetime64[us]"))
    series = pa.table({"k": ["a"], "ts": ts, "v": [1.5], "x": [3],
                       "y": [4], "u": [1]})
    edges = pa.table({"src": [0], "dst": [1]})
    emb = pa.table({"label": [0], "embedding": pa.array(
        [[0.1, 0.2]], pa.list_(pa.float32()))})
    day = [("key", "string"), ("day", "string")]
    # (input, root, result schema, result rows)
    cases = [
        (series, lambda d: window.trailing_day_sum(d, "k", "ts", "v"),
         _schema(*day, ("day_cents", "int64"), ("trail_cents", "int64")),
         0),
        (series, lambda d: window.gap_fill_daily(d, "k", "ts", "v"),
         _schema(*day, ("cents", "int64"), ("was_gap", "int64")), 0),
        (series, lambda d: window.moving_day_median(d, "k", "ts", "v"),
         _schema(*day, ("day_cents", "int64"), ("med_cents", "int64")), 0),
        (series, lambda d: reduce.grouped_var_exact(d, "k", "v"),
         _schema(("k", "string"), ("n_rows", "int64"),
                 ("var_value", "float64"), ("stddev_value", "float64")), 0),
        (series, lambda d: reduce.grouped_corr_exact(d, "k", "x", "y"),
         _schema(("k", "string"), ("corr", "float64")), 0),
        (series,
         lambda d: reduce.grouped_regr_slope_exact(d, "k", "x", "y"),
         _schema(("k", "string"), ("slope", "float64")), 0),
        (series, lambda d: reduce.cohort_counts(d, "u", "ts"),
         _schema(("cohort_month", "string"), ("month_k", "int64"),
                 ("n_customers", "int64")), 0),
        # every node keeps its uniform start rank
        (edges, lambda d: graph.pagerank_fixed(d, 3),
         _schema(("site", "int64"), ("pr_fixed", "int64")), 3),
        (edges, lambda d: graph.degree_histogram(d, 3),
         _schema(("degree", "int64"), ("n_nodes", "int64")), 0),
        (edges, lambda d: graph.triangle_count(d, 3),
         _schema(("n_triangles", "int64")), 1),
        (edges, lambda d: graph.degree_assortativity(d, 3),
         _schema(("n_edges", "int64"), ("assortativity", "float64")), 1),
        # the seed reaches itself at hop 0
        (edges, lambda d: graph.bfs_hops(d, 3, [0]),
         _schema(("site", "int64"), ("hops", "int64")), 1),
        (series, lambda d: sketch.mg_heavy_hitters(
            lambda: d, "x", k=9, total_rows=0, threshold_den=10),
         _schema(("x", "int64"), ("n_rows", "int64")), 0),
        (pa.table({"pix": [0], "value": [1]}),
         lambda d: rs.zonal_stats(d, 1, 10, 10),
         _schema(("cell", "uint64"), ("n_pixels", "int64"),
                 ("sum_value", "int64"), ("max_value", "int64")), 0),
        (emb, ann.centroids_by_label,
         _schema(("label", "int64"), ("dim", "int64"),
                 ("sum_micro", "int64"), ("n_vecs", "int64")), 0),
        (emb, ann.label_cohesion,
         _schema(("label", "int64"), ("n_vecs", "int64"),
                 ("mean_pair_dot", "float64")), 0),
        (pa.table({"url": ["http://x/1"]}), geotag.count_pyramid,
         _schema(("res", "int64"), ("cell", "int64"),
                 ("num_pages", "int64")), 0),
    ]
    for tbl, fn, schema, rows in cases:
        out = fn(rd.from_arrow(tbl.schema.empty_table()))
        assert (out.schema, out.num_rows) == (schema, rows), fn
        out = fn(rd.from_arrow(tbl).filter(lambda r: False))
        if schema.names[0] == "k":  # an exact-moment key, typed by input
            schema = schema.set(0, pa.field("k", pa.null()))
        assert (out.schema, out.num_rows) == (schema, rows), fn
    for fn, col in ((scan.global_exclusive_cumsum, "excl_cumsum"),
                    (scan.global_exclusive_cummax, "excl_cummax")):
        out = fn(rd.from_arrow(series.schema.empty_table()), "x", "y")
        assert out.count() == 0
        assert out.schema().base_schema == series.schema.append(
            pa.field(col, pa.int64()))
    for empty in (rd.from_arrow(series.schema.empty_table()),
                  rd.from_arrow(series).filter(lambda r: False)):
        keys, shares = skew.detect_hot_keys(empty, "k", "u")
        assert (keys.dtype, keys.shape) == (np.int64, (0,))
        assert (shares.dtype, shares.shape) == (np.float64, (0,))
    pq.write_table(pq.read_schema(
        f"{entry.SF0001}/events.parquet").empty_table(),
        tmp_path / "events.parquet")
    out = relational.events_funnel(str(tmp_path))
    assert out.to_pylist() == [{"n_step1": 0, "n_step2": 0, "n_step3": 0}]
    assert out.schema == _schema(("n_step1", "int64"),
                                 ("n_step2", "int64"), ("n_step3", "int64"))


def test_empty_tables_pip_ann_winsorized(ray_session, tmp_path):
    """Over all-empty tables the three ANN top-k queries, events_winsorized
    and the exact PIP join return their typed empty results (the ANN
    queries have no query vectors to stack, the winsorizer no bounds)."""
    import pyarrow.parquet as pq

    import __ray_entry__ as entry

    for t in ["documents", "events", "embeddings"]:
        s = pq.read_schema(f"{entry.SF0001}/{t}.parquet")
        pq.write_table(s.empty_table(), tmp_path / f"{t}.parquet")
    q = entry.queries()
    ann = _schema(("query_id", "int64"), ("vec_id", "int64"))
    expect = {"ann_topk_cosine": ann, "ann_topk_lsh": ann,
              "ann_topk_ivf": ann,
              "events_winsorized": _schema(
                  ("event_id", "int64"), ("event_type", "string"),
                  ("value_w", "float64")),
}
    for name, schema in expect.items():
        out = q[name](str(tmp_path))
        assert (out.schema, out.num_rows) == (schema, 0), name
    from h3ray.io import pages as pio
    from h3ray.pipelines import pip

    out = pip.pip_join(pio.pages_from_documents(str(tmp_path)),
                       pip.city_polygons(2), res=8, exact=True)
    assert out.count() == 0
    assert out.schema().base_schema == _schema(
        ("url", "string"), ("polygon_id", "int64"), ("cell", "uint64"))


def test_combine_derives_empty_partial_schema(ray_session, tmp_path):
    """A read-fed combine with no `schema=` types its empty result by
    running its own prep and group_by on an empty table of the read's
    schema; finish runs once, on the typed empty merge. Three ways for
    no row to reach the root: an empty file, a read filter that keeps no
    row, and a prep that drops every row of a non-empty read (Ray then
    yields no batch at all)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from h3ray.ops.reduce import combine

    t = pa.table({"k": ["a", "b", "a"], "v": [1, 2, 3]})
    pq.write_table(t, tmp_path / "rows.parquet")
    pq.write_table(t.schema.empty_table(), tmp_path / "empty.parquet")
    partial = _schema(("key", "string"), ("n", "int64"), ("v", "int64"))
    seen = []

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({"key": b["k"], "v": b["v"]})

    def finish(g: pa.Table) -> pa.Table:
        seen.append(g.schema)
        return g.append_column(
            "mean", pa.array([None] * g.num_rows, pa.float64()))

    cases = {
        "empty file": (rd.read_parquet(str(tmp_path / "empty.parquet")),
                       prep),
        "filter keeps no row": (rd.read_parquet(
            str(tmp_path / "rows.parquet"), filter=pc.field("v") > 9), prep),
        "prep drops every row": (rd.read_parquet(
            str(tmp_path / "rows.parquet")), lambda b: prep(b).slice(0, 0)),
    }
    for name, (ds, p) in cases.items():
        seen.clear()
        out = combine(ds, "key", count="n", sums=("v",), prep=p,
                      finish=finish)
        assert out.num_rows == 0, name
        assert out.schema == partial.append(pa.field("mean", pa.float64())), \
            name
        assert seen == [partial], name


def _arrow_schema(out) -> pa.Schema:
    if isinstance(out, pa.Table):
        return out.schema
    return out.materialize().schema().base_schema


def test_empty_tables_keep_sf0001_schemas(ray_session, tmp_path):
    """Over all-empty tables these queries return zero rows with their
    sf0.001 Arrow schema: four that a schema-less aggregate, filter or map
    upstream of a join used to break, four more that projected a join
    output (Ray's select_columns passes a join's typed empty seed through
    unprojected; orders_big_qty did too) and four whose derived empty
    partial lists its columns in another order than a hand-written one
    did."""
    import pyarrow.parquet as pq

    import __ray_entry__ as entry

    for t in ["documents", "orders", "customer", "supplier", "nation",
              "lineitem", "part", "events"]:
        s = pq.read_schema(f"{entry.SF0001}/{t}.parquet")
        pq.write_table(s.empty_table(), tmp_path / f"{t}.parquet")
    q = entry.queries()
    for name in ["orders_big_qty", "orders_revenue_topk",
                 "docs_exact_canonical", "docs_curation_pipeline",
                 "revenue_local_suppliers", "nation_pair_volume",
                 "nation_trade_balance", "nation_export_concentration",
                 "customer_rfm_scores", "shipping_priority_topk",
                 "part_type_price_stats", "events_props_ksum_by_type"]:
        empty = q[name](str(tmp_path))
        n = empty.num_rows if isinstance(empty, pa.Table) \
            else empty.count()
        assert n == 0, name
        assert _arrow_schema(empty).remove_metadata() == _arrow_schema(
            q[name](entry.SF0001)).remove_metadata(), name

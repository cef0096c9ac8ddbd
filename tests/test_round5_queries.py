"""Round-5 TPC-H-shape wave (Q2/Q6/Q8/Q9/Q10/Q14/Q20 adaptations).

Each query is hash-checked against its DuckDB oracle at sf0.001 (the same
comparison the driver runs at sf0.01, cheap enough for every pytest run)
and must return a schema-stable empty result over fully-empty tables.
"""

import sys
from pathlib import Path

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import __ray_entry__ as entry  # noqa: E402

WAVE = ["forecast_revenue_delta", "promo_revenue_pct",
        "nation_market_share", "product_type_profit",
        "returned_item_customers", "excess_parts_suppliers",
        "best_supplier_per_part",
        # wave 2: semi-structured extraction, corpus bigrams, set ops,
        # exact grouped variance
        "events_props_ksum_by_type", "events_first_last_by_user",
        "docs_bigram_topk", "docs_lang_source_except",
        "docs_lang_source_intersect", "events_stddev_by_type",
        "pages_byte_stats_by_lang", "sites_pagerank",
        "events_funnel", "events_weekly_retention",
        "docs_bigram_familiarity", "orders_grouping_sets",
        # wave 3: transition matrix, session distribution, dominant
        # embedding dims, char-class profile, running revenue, NTILE
        "events_transition_counts", "events_session_stats",
        "emb_dominant_dims", "docs_char_class_stats",
        "orders_cumulative_revenue", "events_quartile_stats",
        # wave 4: order cadence, DAU, hour profile, MAD, length histogram
        "customer_order_gaps", "events_dau", "events_hour_profile",
        "events_mad_by_type", "docs_len_histogram",
        "events_sketch_quantiles",
        # wave 5: dimension-broadcast profiles
        "supplier_acctbal_quartiles", "customer_mktseg_nation_matrix",
        "lineitem_monthly_discount", "part_type_price_stats",
        # wave 6: Q3/Q12 shapes, Misra-Gries exact heavy hitters, TTR
        "shipping_priority_topk", "late_priority_lines",
        "events_mg_heavy_users", "docs_ttr",
        # wave 7: Q11/Q16 shapes, bigram PMI, lang diversity
        "part_value_concentration", "brand_type_supplier_counts",
        "docs_bigram_pmi", "docs_source_lang_simpson",
        # wave 8: big-big range join, graph triangles / degrees
        "events_purchase_followups", "sites_triangle_count",
        "sites_degree_hist",
        # wave 9: type co-occurrence, conversion gap, hapax stats
        "events_type_cooccurrence", "signup_purchase_gap",
        "docs_hapax_stats",
        # wave 10: global window function, Pareto curve
        "docs_global_rank", "orders_pareto_share",
        # wave 11: exact regression slope, gaps-and-islands streaks
        "events_value_trend_by_type", "events_max_streak",
        # wave 12: exact outlier top-k, lang-pair source Jaccard
        "events_top_outliers", "lang_source_jaccard",
        # wave 13: Tukey-fence outliers, Herfindahl concentration
        "part_brand_price_iqr_outliers", "supplier_nation_herfindahl",
        # wave 14: session-opening clickstream paths
        "events_session_paths",
        # wave 15: token lengths, log2 inter-arrival latency
        "docs_token_len_hist", "events_interarrival_hist",
        # wave 16: market-basket pairs, sliding 24h distinct users
        "parts_bought_together", "events_sliding_distinct_users",
        # wave 17: PERCENTILE_DISC, exact weighted mean
        "events_p50_disc_by_type", "brand_qty_weighted_price",
        # wave 18: multi-source BFS, df-banded inverted index
        "sites_bfs_hops", "docs_inverted_postings",
        # wave 19: Pareto-front skyline, cohort retention
        "part_price_size_skyline", "customer_cohort_retention",
        # wave 20: OHLC candles, embedding cluster cohesion
        "events_ohlc_daily", "emb_label_cohesion",
        # wave 21: RANGE-frame trailing sums, exact top-k dot pairs
        "events_trailing_7d", "emb_top_dot_pairs",
        # wave 22: calendar gap-fill, anti-entropy fingerprints
        "events_gap_filled", "events_partition_fingerprints",
        # wave 23: fuzzy record linkage, moving windowed median
        "pages_fuzzy_url_pairs", "events_moving_median_7d",
        # wave 24: exact weighted median, term dictionary
        "brand_weighted_median_price", "docs_term_dictionary",
        # wave 25: largest-remainder proration, session concurrency
        "order_alloc_by_qty", "events_session_concurrency",
        # wave 26: RFM quartile scores, Benford first-digit profile
        "customer_rfm_scores", "lineitem_benford",
        # wave 27: chi-square independence, tie-preserving top-k
        "docs_lang_source_chi2", "monthly_top_revenue_days",
        # wave 28: nation spend Gini, daily-count lag-1 autocorrelation
        "nation_order_gini", "events_daily_autocorr",
        # wave 29: type-pair association lift, exact covariance matrix
        "events_type_lift", "lineitem_moment_matrix",
        # wave 30: YoY monthly revenue, grouped signed r^2
        "orders_monthly_yoy", "nation_balance_spend_r2",
        # wave 31: Hampel anomaly days, Heaps vocab growth
        "events_anomaly_days", "docs_vocab_growth",
        # wave 32: fifth-event activation latency, revenue drawdown
        "users_fifth_event_latency", "orders_revenue_drawdown",
        # wave 33: k-anonymity audit, region part coverage
        "docs_k_anonymity", "region_part_coverage",
        # wave 34: burst bot flags, winsorized mean
        "events_burst_users", "events_winsorized_mean",
        # wave 35: dedup survivorship, DAU/WAU stickiness
        "docs_dup_loss_by_source", "events_stickiness_daily",
        # wave 36: first-touch attribution, order fan-out histogram
        "events_first_touch_conversion", "orders_fanout_hist",
        # wave 37: prefix template groups, customer spend momentum
        "docs_common_prefix_groups", "customer_momentum_by_nation",
        # wave 38: monthly reactivations, user lifetime histogram
        "events_reactivations_monthly", "users_lifetime_hist",
        # wave 39: Fano overdispersion, monthly customer-revenue HHI
        "events_fano_daily", "orders_monthly_hhi",
        # wave 40: graph reciprocity, value decile means
        "sites_reciprocity", "events_value_decile_means",
        # wave 41: clustering coefficient, week-over-week growth
        "sites_clustering_coeff", "events_wow_growth",
        # wave 42: repeat revenue split, Bowley quartile skewness
        "orders_repeat_revenue_share", "events_bowley_skew_by_type",
        # wave 43: weekly churn lifecycle, degree assortativity
        "events_weekly_churn", "sites_degree_assortativity",
        # wave 44: top-2 wallet concentration, user growth curve
        "nation_top2_customer_share", "events_user_growth_daily",
        # wave 45: session bounce rate, dual-median spend quadrants
        "events_session_bounce", "customer_spend_quadrants",
        # wave 46: centroid affinity matrix, brand discount elasticity
        "emb_label_affinity", "brand_discount_qty_corr",
        # wave 47: relational division, percent-of-parent revenue tree
        "nations_full_segment_coverage", "region_nation_revenue_tree",
        # wave 48: correlated own-average compare, Wilson lower bound
        "orders_above_customer_avg", "brand_return_wilson",
        # wave 49: hash-split A/B z-score, priority-mix TVD drift
        "events_ab_purchase_lift", "orders_priority_drift",
        # wave 50: median session duration, norm^2 quartiles
        "events_session_median_dur", "emb_norm2_quartiles_by_label",
        # wave 51: shingle novelty curve, tail concentration
        "docs_shingle_novelty", "events_tail_share_by_type",
        # wave 52: month-of-year seasonality, cross-source dup matrix
        "orders_seasonality", "docs_dup_source_matrix",
        # wave 53: weekday/weekend contrast, langid confusion matrix
        "events_weekend_contrast", "docs_langid_confusion",
        # wave 54: order backlog curve, top-3 + OTHER rollup
        "orders_backlog_curve", "nation_top3_suppliers_others",
        # wave 55: two-sample KS test, per-user Simpson diversity
        "events_ks_purchase_click", "users_simpson_hist",
        # wave 56: Wald-Wolfowitz runs test, Spearman rank stability
        "orders_runs_test", "nation_rank_spearman",
        # wave 57: inter-order gap hazard curve, Markov fixed point
        "customer_gap_hazard", "events_markov_stationary",
        # wave 58: Kendall tau-b per brand, exact one-way ANOVA F
        "part_size_price_kendall", "lineitem_qty_anova",
        # wave 59: ARI readability per lang, Jaccard threshold curve
        "docs_ari_by_lang", "docs_jaccard_threshold_curve",
        # wave 60: Mann-Kendall trend test, neighborhood Jaccard top-k
        "orders_mann_kendall", "sites_neighbor_jaccard_topk",
        # wave 61: exact dim covariance matrix, trigram sequence mining
        "emb_dim_covariance", "events_type_trigrams_topk",
        # wave 62: simhash bit-bias diagnostics, quality x dup 2x2
        "docs_simhash_bit_bias", "docs_quality_dup_contingency",
        # wave 63: CUSUM changepoint, harmonic centrality
        "orders_cusum_changepoint", "sites_harmonic_centrality",
        # wave 64: Theil-Sen robust slope, winnowing fingerprints
        "orders_theil_sen", "docs_winnow_fingerprints",
        # wave 65: Simpson's paradox audit, dedup method agreement
        "lineitem_simpson_paradox", "docs_dedup_method_agreement",
        # wave 66: dup-cluster size histogram, dominant period
        "docs_dup_cluster_size_hist", "events_dominant_period",
        # wave 67: JSONL source/sink round-trip, inspection paradox
        "docs_jsonl_roundtrip", "events_inspection_paradox",
        # wave 68: CSV round-trip, vocabulary coverage curve
        "events_csv_roundtrip", "docs_vocab_coverage_curve",
        # wave 69: langid P/R/F1 scorecard, type synchrony matrix
        "docs_langid_prf", "events_type_synchrony",
        # wave 70: Gumbel block maxima, dup-graph transitivity
        "orders_gumbel_maxima", "docs_dup_transitivity",
        # wave 71: embedding hubness histogram, record-breaking days
        "emb_hubness_hist", "events_record_days",
        # wave 72: N50 supplier concentration, Grubbs outlier test
        "brand_supplier_n50", "supplier_balance_grubbs",
        # wave 73: Jarque-Bera normality, pagerank-degree correlation
        "docs_len_jarque_bera", "sites_pagerank_degree_corr",
        # wave 74: partial correlation, Mood's median test
        "lineitem_partial_corr", "events_mood_median_test",
        # wave 75: quartile migration matrix, price-ending profile
        "customer_quartile_migration", "part_price_endings",
        # wave 76: PACF at lag 2, yearly rank-volatility curve
        "events_pacf_lag2", "nation_rank_volatility",
        # wave 77: Kruskal-Wallis across weekdays, dedup token savings
        "orders_weekday_kruskal", "docs_dedup_token_savings",
        # wave 78: Mann-Whitney U, Q-Q decile slope
        "events_mann_whitney", "events_qq_decile_slope",
        # wave 79: lateness watermark histogram, shuffle balance audit
        "events_lateness_hist", "events_shuffle_balance",
        # wave 80: kNN label purity, Welch's unequal-variance t
        "emb_knn_label_purity", "docs_len_welch_t",
        # wave 81: Cohen's kappa, eta-squared effect size
        "docs_langid_kappa", "docs_lang_len_eta2",
        # wave 82: ABC inventory classes, Chao1 vocabulary richness
        "lineitem_abc_analysis", "docs_chao1_vocab",
        # wave 83: Good-Turing smoothing, embedding centroid shift
        "docs_good_turing", "emb_centroid_shift",
        # wave 84: gap burstiness, rich-club coefficient curve
        "events_gap_burstiness", "sites_rich_club",
        # wave 85: negative-binomial fit, trade-balance matrix
        "users_event_count_nbfit", "nation_trade_balance",
        # wave 86: Cochran-Armitage trend, lexical density
        "lineitem_ca_trend", "docs_lexical_density_by_source",
        # wave 87: seasonal Mann-Kendall, edge triangle support
        "orders_seasonal_mann_kendall", "sites_edge_support_hist",
        # wave 88: exact Shapley attribution, sign test
        "events_shapley_attribution", "customer_balance_sign_test",
        # wave 89: deterministic bootstrap, export concentration
        "orders_bootstrap_resamples", "nation_export_concentration",
        # wave 90: Shewhart c-chart, quantization error curve
        "orders_control_chart", "emb_quant_error_curve",
        # wave 91: bow-tie decomposition, activity episodes
        "sites_bowtie", "users_episode_hist",
        # wave 92: Markov removal attribution, hour uniformity chi2
        "events_markov_removal", "events_hour_uniformity_chi2",
        # wave 93: source vocab overlap, rapid-repeat share
        "docs_source_vocab_overlap", "events_rapid_repeat_share"]

SF = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


@pytest.mark.parametrize("name", WAVE)
def test_matches_duckdb_oracle(ray_session, con, name):
    out = entry.queries()[name](SF)
    got = _norm(out.to_pandas() if hasattr(out, "to_pandas") else out)
    exp = _norm(con.execute(entry.oracle_sql()[name]).fetchdf())
    assert list(got.columns) == list(exp.columns), name
    assert len(got) == len(exp), name
    for c in got.columns:
        # dtype KINDS must agree too (the driver's hash is dtype-sensitive)
        assert got[c].dtype.kind == exp[c].dtype.kind, (name, c)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_empty_tables_round5_queries(ray_session, tmp_path):
    for t in TABLES:
        s = pq.read_schema(f"{SF}/{t}.parquet")
        pq.write_table(s.empty_table(), tmp_path / f"{t}.parquet")
    q = entry.queries()
    for name in WAVE:
        out = q[name](str(tmp_path))
        n = out.num_rows if isinstance(out, pa.Table) else out.count()
        # single-row scalar aggregates mirror SQL SUM() over zero rows
        # (one NULL row); pagerank is defined on the full fixed node set
        # (997 base-rank rows, matching its SQL mirror's nodes CTE);
        # everything else must be zero rows.
        # sites_triangle_count: COUNT(*) over zero wedges is one 0-row,
        # exactly like its SQL mirror
        # sites_bfs_hops: zero edges still reach the 3 seeds at hop 0,
        # exactly like the recursive CTE's anchor rows
        limit = {"forecast_revenue_delta": 1, "promo_revenue_pct": 1,
                 "sites_pagerank": 997, "sites_triangle_count": 1,
                 "events_funnel": 1, "sites_bfs_hops": 3,
                 "users_fifth_event_latency": 1,
                 # fixed 5-point threshold lattice, like the SQL
                 # mirror's VALUES list LEFT JOIN
                 "docs_jaccard_threshold_curve": 5,
                 # scalar-subquery counts row (0,0,0,NULL), like the
                 # SQL mirror's single-row c CTE
                 "docs_dedup_method_agreement": 1,
                 # cross-joined scalar census CTEs yield one zero row
                 "docs_dup_transitivity": 1,
                 # fixed 4-channel lattice, like the SQL mirror's
                 # VALUES channel table over the always-present
                 # 16-subset lattice
                 "events_shapley_attribution": 4,
                 # fixed 4-channel scenario rows, like the generated
                 # oracle's UNION ALL of scalar subqueries
                 "events_markov_removal": 4,
                 "sites_reciprocity": 1,
                 "sites_clustering_coeff": 1,
                 "sites_degree_assortativity": 1}.get(name, 0)
        assert n <= limit, name


def test_set_ops_match_python_sets(ray_session):
    import numpy as np
    import ray.data as rd

    from h3ray.ops.setops import except_distinct, intersect_distinct

    rng = np.random.default_rng(3)
    a = [(f"k{int(i)}", f"v{int(j)}")
         for i, j in zip(rng.integers(0, 12, 400),
                         rng.integers(0, 5, 400))]
    b = [(f"k{int(i)}", f"v{int(j)}")
         for i, j in zip(rng.integers(0, 12, 300),
                         rng.integers(0, 5, 300))]
    mk = lambda rows: rd.from_arrow(pa.table(  # noqa: E731
        {"x": [r[0] for r in rows],
         "y": [r[1] for r in rows]})).repartition(4)
    got_ex = {tuple(r.values()) for r in
              except_distinct(mk(a), mk(b), ["x", "y"]).take_all()}
    got_in = {tuple(r.values()) for r in
              intersect_distinct(mk(a), mk(b), ["x", "y"]).take_all()}
    assert got_ex == set(a) - set(b)
    assert got_in == set(a) & set(b)


def test_grouped_var_exact_edge_cases(ray_session):
    import ray.data as rd

    from h3ray.ops.reduce import grouped_var_exact

    ds = rd.from_arrow(pa.table({
        "g": ["a", "a", "a", "b", "c", "c"],
        "v": [1.25, 2.50, 4.75, 7.00, 3.00, 3.00]})).repartition(3)
    t = grouped_var_exact(ds, "g", "v", scale=100)
    rows = {r["g"]: r for r in t.to_pylist()}
    # singleton group -> NULL (SQL VAR_SAMP); constant group -> 0.0
    assert rows["b"]["var_value"] is None
    assert rows["c"]["var_value"] == 0.0
    import statistics
    assert abs(rows["a"]["var_value"]
               - statistics.variance([1.25, 2.50, 4.75])) < 1e-12


def test_window_first_last_partition_edges(ray_session):
    import ray.data as rd

    from h3ray.ops.window import window_first_last

    ds = rd.from_arrow(pa.table({
        "id": [1, 2, 3, 4, 5, 6],
        "p": ["a", "a", "a", "b", "b", "c"],
        "o": [10, 5, 7, 1, 1, 9],      # ties in b break on id
        "v": [100, 200, 300, 400, 500, 600]})).repartition(3)
    t = window_first_last(ds, "p", "o", "v", tiebreak_col="id", nth=2)
    rows = {r["id"]: r for r in t.take_all()}
    # partition a sorted by o: id2(5), id3(7), id1(10)
    for i in (1, 2, 3):
        assert rows[i]["first_value"] == 200
        assert rows[i]["last_value"] == 100
        assert rows[i]["nth_value"] == 300
    # partition b: tie on o=1 -> id4 first
    for i in (4, 5):
        assert rows[i]["first_value"] == 400
        assert rows[i]["last_value"] == 500
        assert rows[i]["nth_value"] == 500
    # singleton partition: NTH_VALUE(2) is NULL
    assert rows[6]["first_value"] == 600
    assert rows[6]["last_value"] == 600
    assert rows[6]["nth_value"] is None


def test_pagerank_fixed_tiny_graph(ray_session):
    """Hand-checkable 3-node graph, 1 iteration: 0->1, 0->2, 1->2.
    base = scale//3; node0 gets no incoming; node1 gets r0//2; node2
    gets r0//2 + r1//1. Integer floor division throughout."""
    import ray.data as rd

    from h3ray.ops.graph import pagerank_fixed

    edges = rd.from_arrow(pa.table({"src": [0, 0, 1],
                                    "dst": [1, 2, 2]})).repartition(2)
    scale = 10 ** 6
    t = pagerank_fixed(edges, 3, iters=1, scale=scale)
    r = dict(zip(t["site"].to_pylist(), t["pr_fixed"].to_pylist()))
    base = scale // 3
    assert r[0] == (15 * base) // 100
    assert r[1] == (15 * base) // 100 + (85 * (base // 2)) // 100
    assert r[2] == (15 * base) // 100 \
        + (85 * (base // 2 + base // 1)) // 100
    # determinism under different blocking
    t2 = pagerank_fixed(edges.repartition(1), 3, iters=1, scale=scale)
    assert t2.equals(t)


def test_grouping_sets_matches_rollup_pieces(ray_session):
    """Arbitrary sets over a tiny table: the (a) and (b) marginals plus
    the () total must equal hand-computed aggregates; empty input emits
    the ()-row only when () is requested."""
    import ray.data as rd

    from h3ray.ops.reduce import grouping_sets_counts

    ds = rd.from_arrow(pa.table({
        "a": ["x", "x", "y"], "b": ["p", "q", "p"],
        "v": [1, 2, 4]})).repartition(2)
    t = grouping_sets_counts(ds, ["a", "b"],
                             [("a",), ("b",), ()], "v")
    rows = {(r["a"], r["b"]): (r["num_rows"], r["sum_value"])
            for r in t.to_pylist()}
    assert rows == {("x", None): (2, 3), ("y", None): (1, 4),
                    (None, "p"): (2, 5), (None, "q"): (1, 2),
                    (None, None): (3, 7)}
    e = rd.from_arrow(pa.table({"a": pa.array([], pa.string()),
                                "b": pa.array([], pa.string()),
                                "v": pa.array([], pa.int64())}))
    te = grouping_sets_counts(e, ["a", "b"], [("a",), ()], "v")
    rows_e = {(r["a"], r["b"]): (r["num_rows"], r["sum_value"])
              for r in te.to_pylist()}
    assert rows_e == {(None, None): (0, None)}


def test_funnel_ordering_semantics(ray_session, tmp_path):
    """Out-of-order steps must NOT count: a user whose purchase precedes
    their first view completes step 1 only; same-timestamp qualifies."""
    import pyarrow.parquet as pq

    from h3ray.pipelines.relational import events_funnel

    ts = pa.array([100, 200, 300,      # u1: view, click, purchase (full)
                   500, 400, 300,      # u2: view@500 after purchase@300
                   700, 700,           # u3: view and click same instant
                   900],               # u4: click only (no view)
                  type=pa.timestamp("us"))
    t = pa.table({
        "event_id": pa.array(range(9), pa.int64()),
        "user_id": pa.array([1, 1, 1, 2, 2, 2, 3, 3, 4], pa.int64()),
        "ts": ts,
        "event_type": ["view", "click", "purchase",
                       "view", "click", "purchase",
                       "view", "click", "click"],
        "value": pa.array([0.0] * 9),
        "props": ["{}"] * 9})
    pq.write_table(t, tmp_path / "events.parquet")
    out = events_funnel(str(tmp_path))
    row = out.to_pylist()[0]
    # u1 full; u2 view only (click@400 < view@500); u3 view+click (==ts)
    assert row == {"n_step1": 3, "n_step2": 2, "n_step3": 1}


def test_weekly_retention_semantics(ray_session, tmp_path):
    """Users count once per (cohort, offset) week regardless of how many
    events they fired in it; cohort = first-activity week."""
    import pyarrow.parquet as pq

    from h3ray.pipelines.relational import events_weekly_retention

    wk = 604800_000_000
    ts = pa.array([0, 1, wk, 3 * wk,      # u1: weeks 0,0,1,3
                   wk, wk + 5,            # u2: week 1 twice (cohort 1)
                   0],                    # u3: week 0 only
                  type=pa.timestamp("us"))
    t = pa.table({
        "event_id": pa.array(range(7), pa.int64()),
        "user_id": pa.array([1, 1, 1, 1, 2, 2, 3], pa.int64()),
        "ts": ts,
        "event_type": ["view"] * 7,
        "value": pa.array([0.0] * 7),
        "props": ["{}"] * 7})
    pq.write_table(t, tmp_path / "events.parquet")
    out = events_weekly_retention(str(tmp_path))
    got = {(r["cohort_week"], r["week_offset"]): r["n_users"]
           for r in out.to_pylist()}
    assert got == {(0, 0): 2,   # u1 + u3 in their cohort week
                   (0, 1): 1, (0, 3): 1,   # u1 returns in weeks 1 and 3
                   (1, 0): 1}              # u2 cohort week 1, once


def test_bigram_topk_tokenization_edges(ray_session):
    import ray.data as rd

    from h3ray.text.analysis import bigram_topk

    ds = rd.from_arrow(pa.table({"text": [
        "  a b  ", "", "solo", "a b c", "b c"]})).repartition(2)
    t = bigram_topk(ds, "text", k=10)
    got = {(r["w1"], r["w2"]): r["cnt"] for r in t.to_pylist()}
    assert got == {("a", "b"): 2, ("b", "c"): 2}


def test_skyline_2d_matches_brute_force(ray_session):
    import numpy as np
    import ray.data as rd

    from h3ray.ops.reduce import skyline_2d

    rng = np.random.default_rng(5)
    n = 400
    lo = rng.integers(0, 40, n)          # coarse -> guaranteed ties
    hi = rng.integers(0, 40, n)
    ids = np.arange(n)
    brute = {int(i) for i in ids
             if not any((lo[j] <= lo[i]) and (hi[j] >= hi[i])
                        and (lo[j] < lo[i] or hi[j] > hi[i])
                        for j in range(n))}
    tbl = pa.table({"id": ids, "lo": lo, "hi": hi})
    for nparts in (1, 6):
        out = skyline_2d(rd.from_arrow(tbl).repartition(nparts),
                         "id", "lo", "hi")
        assert set(out["id"].to_pylist()) == brute
        assert out["id"].to_pylist() == sorted(out["id"].to_pylist())


def test_skyline_2d_duplicates_all_survive(ray_session):
    import ray.data as rd

    from h3ray.ops.reduce import skyline_2d

    # two identical optimal points + one dominated
    tbl = pa.table({"id": [1, 2, 3], "lo": [5, 5, 9], "hi": [7, 7, 7]})
    out = skyline_2d(rd.from_arrow(tbl).repartition(2), "id", "lo", "hi")
    assert out["id"].to_pylist() == [1, 2]


def test_cohort_counts_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from h3ray.ops.reduce import cohort_counts

    rng = np.random.default_rng(7)
    n = 500
    users = rng.integers(0, 40, n)
    days = rng.integers(0, 900, n)
    ts = (np.datetime64("2021-01-01") + days.astype("timedelta64[D]")) \
        .astype("datetime64[us]")
    tbl = pa.table({"u": users.astype(np.int64), "ts": ts})

    df = pd.DataFrame({"u": users, "m": ts.astype("datetime64[M]")})
    act = df.drop_duplicates()
    fo = act.groupby("u")["m"].min().rename("cm")
    j = act.join(fo, on="u")
    j["k"] = ((j.m.dt.year - j.cm.dt.year) * 12
              + (j.m.dt.month - j.cm.dt.month))
    exp = j.groupby([j.cm.dt.strftime("%Y-%m"), "k"]).size()

    for nparts in (1, 5):
        out = cohort_counts(rd.from_arrow(tbl).repartition(nparts),
                            "u", "ts").to_pandas()
        got = {(r.cohort_month, r.month_k): r.n_customers
               for r in out.itertuples()}
        assert got == {(cm, int(k)): int(v)
                       for (cm, k), v in exp.items()}


def test_ohlc_daily_matches_pandas_with_ties(ray_session):
    import numpy as np
    import ray.data as rd

    from h3ray.ops.reduce import ohlc_daily

    rng = np.random.default_rng(13)
    n = 600
    # coarse second grid -> guaranteed duplicate timestamps per key/day
    secs = rng.integers(0, 3 * 86400, n) // 7200 * 7200
    ts = (np.datetime64("2023-05-01") + secs.astype("timedelta64[s]")) \
        .astype("datetime64[us]")
    key = np.array(["a", "b", "c"])[rng.integers(0, 3, n)]
    val = rng.integers(-50, 50, n).astype(np.float64) / 4.0
    tbl = pa.table({"k": key, "ts": ts, "v": val})

    exp = {}
    for i in range(n):
        kd = (key[i], str(ts[i].astype("datetime64[D]")))
        mn, mx, op, cl, lo, hi, c = exp.get(
            kd, (ts[i], ts[i], val[i], val[i], val[i], val[i], 0))
        if ts[i] < mn:
            mn, op = ts[i], val[i]
        elif ts[i] == mn:
            op = min(op, val[i])
        if ts[i] > mx:
            mx, cl = ts[i], val[i]
        elif ts[i] == mx:
            cl = max(cl, val[i])
        exp[kd] = (mn, mx, op, cl, min(lo, val[i]), max(hi, val[i]),
                   c + 1)

    for nparts in (1, 6):
        out = ohlc_daily(rd.from_arrow(tbl).repartition(nparts),
                         "k", "ts", "v").to_pandas()
        got = {(r.key, r.day): (r.open, r.close, r.low, r.high,
                                r.n_events)
               for r in out.itertuples()}
        assert got == {kd: (op, cl, lo, hi, c)
                       for kd, (mn, mx, op, cl, lo, hi, c)
                       in exp.items()}


def test_label_cohesion_matches_pairwise_brute_force(ray_session):
    import numpy as np
    import ray.data as rd

    from h3ray.pipelines.ann import label_cohesion

    rng = np.random.default_rng(17)
    n, d = 120, 8
    emb = rng.normal(size=(n, d)).astype(np.float32) / 3.0
    lab = rng.integers(0, 4, n)
    lab[lab == 3] = 2          # make label 3 vanish
    lab[0] = 3                 # ...and re-add it as a singleton
    tbl = pa.table({"vec_id": np.arange(n, dtype=np.int64),
                    "label": lab.astype(np.int32),
                    "embedding": [e.tolist() for e in emb]})

    micro = np.floor(emb.astype(np.float64) * 1e6 + 0.5)
    exp = {}
    for g in np.unique(lab):
        rows = micro[lab == g]
        m = rows.shape[0]
        if m < 2:
            exp[int(g)] = (m, None)
            continue
        gram = rows @ rows.T
        num = gram.sum() - np.trace(gram)
        exp[int(g)] = (m, float(num) / float(m * (m - 1) * 1e12))

    for nparts in (1, 5):
        out = label_cohesion(
            rd.from_arrow(tbl).repartition(nparts)).to_pandas()
        got = {int(r.label): (int(r.n_vecs),
                              None if pd.isna(r.mean_pair_dot)
                              else r.mean_pair_dot)
               for r in out.itertuples()}
        for g, (m, c) in exp.items():
            gm, gc = got[g]
            assert gm == m
            if c is None:
                assert gc is None
            else:
                assert abs(gc - c) < 1e-9


def test_trailing_day_sum_matches_pandas(ray_session):
    import numpy as np
    import ray.data as rd

    from h3ray.ops.window import trailing_day_sum

    rng = np.random.default_rng(19)
    n = 500
    days = rng.integers(0, 30, n)       # gaps + repeats
    ts = (np.datetime64("2024-02-10") + days.astype("timedelta64[D]")
          + rng.integers(0, 86400, n).astype("timedelta64[s]")) \
        .astype("datetime64[us]")
    key = np.array(["x", "y"])[rng.integers(0, 2, n)]
    val = rng.integers(-400, 400, n) / 100.0
    tbl = pa.table({"k": key, "ts": ts, "v": val})

    cents = np.floor(val * 100 + 0.5).astype(np.int64)
    day = ts.astype("datetime64[D]")
    exp = {}
    for g in ("x", "y"):
        sel = key == g
        for d in np.unique(day[sel]):
            in_day = sel & (day == d)
            in_win = sel & (day <= d) & (day > d - 7)
            exp[(g, str(d))] = (int(cents[in_day].sum()),
                                int(cents[in_win].sum()))

    for nparts in (1, 6):
        out = trailing_day_sum(rd.from_arrow(tbl).repartition(nparts),
                               "k", "ts", "v", days=7).to_pandas()
        got = {(r.key, r.day): (r.day_cents, r.trail_cents)
               for r in out.itertuples()}
        assert got == exp


def test_top_dot_pairs_matches_brute_force(ray_session):
    import numpy as np
    import ray.data as rd

    from h3ray.pipelines.ann import top_dot_pairs

    rng = np.random.default_rng(23)
    n, d = 90, 6
    emb = rng.normal(size=(n, d)).astype(np.float32)
    tbl = pa.table({"vec_id": np.arange(n, dtype=np.int64),
                    "embedding": [e.tolist() for e in emb]})

    micro = np.floor(emb.astype(np.float64) * 1e6 + 0.5).astype(np.int64)
    dots = micro @ micro.T
    cand = [(int(dots[i, j]), i, j)
            for i in range(n) for j in range(i + 1, n)]
    cand.sort(key=lambda t: (-t[0], t[1], t[2]))
    exp = [(i, j, dt) for dt, i, j in cand[:15]]

    for block_rows in (200, 25):        # single-block and multi-block
        out = top_dot_pairs(
            rd.from_arrow(tbl).repartition(3), k=15,
            target_block_rows=block_rows)
        got = list(zip(out["id_a"].to_pylist(),
                       out["id_b"].to_pylist(),
                       out["dot"].to_pylist()))
        assert got == exp

    # empty corpus -> schema-stable empty result
    out = top_dot_pairs(rd.from_arrow(tbl.schema.empty_table()), k=5)
    assert out.num_rows == 0
    assert out.schema.names == ["id_a", "id_b", "dot"]


def test_gap_fill_daily_fills_and_flags(ray_session):
    import numpy as np
    import ray.data as rd

    from h3ray.ops.window import gap_fill_daily

    ts = np.array(["2024-03-01T08:00", "2024-03-01T09:00",
                   "2024-03-04T12:00", "2024-03-10T01:00",
                   "2024-03-05T00:00"], dtype="datetime64[us]")
    key = np.array(["a", "a", "a", "a", "b"])
    val = np.array([1.00, 2.00, 4.00, 8.00, 5.00])
    tbl = pa.table({"k": key, "ts": ts, "v": val})

    for nparts in (1, 3):
        out = gap_fill_daily(rd.from_arrow(tbl).repartition(nparts),
                             "k", "ts", "v").to_pandas()
        a = out[out.key == "a"].sort_values("day")
        # dense calendar: 2024-03-01 .. 2024-03-10 inclusive
        assert list(a.day) == [f"2024-03-{d:02d}" for d in range(1, 11)]
        assert list(a.cents) == [300, 300, 300, 400, 400, 400, 400,
                                 400, 400, 800]
        assert list(a.was_gap) == [0, 1, 1, 0, 1, 1, 1, 1, 1, 0]
        b = out[out.key == "b"]
        assert list(b.day) == ["2024-03-05"]
        assert list(b.cents) == [500]
        assert list(b.was_gap) == [0]


def test_table_fingerprint_invariance_and_sensitivity(ray_session):
    import numpy as np
    import ray.data as rd

    from h3ray.io.pages import _mix64
    from h3ray.ops.reduce import FINGERPRINT_BUCKETS, table_fingerprint

    rng = np.random.default_rng(29)
    keys = rng.permutation(np.arange(3000, dtype=np.int64))
    tbl = pa.table({"id": keys})

    outs = []
    for nparts in (1, 8):
        t = table_fingerprint(rd.from_arrow(tbl).repartition(nparts), "id")
        outs.append(sorted(zip(t["bucket"].to_pylist(),
                               t["n_rows"].to_pylist(),
                               t["xor_fp"].to_pylist())))
    assert outs[0] == outs[1]                  # blocking-invariant
    assert sum(n for _, n, _ in outs[0]) == 3000

    # reference recompute
    h = _mix64(keys.astype(np.uint64))
    exp = {}
    nb = FINGERPRINT_BUCKETS
    for b in range(nb):
        sel = h[(h % np.uint64(nb)).astype(int) == b]
        if sel.size:
            exp[b] = (sel.size,
                      int(np.bitwise_xor.reduce(sel).view(np.int64)))
    assert {b: (n, f) for b, n, f in outs[0]} == exp

    # dropping one row flips exactly its bucket's fingerprint
    t2 = table_fingerprint(rd.from_arrow(tbl.slice(1)), "id")
    got2 = {b: (n, f) for b, n, f in
            zip(t2["bucket"].to_pylist(), t2["n_rows"].to_pylist(),
                t2["xor_fp"].to_pylist())}
    full = {b: (n, f) for b, n, f in outs[0]}
    changed = [b for b in full if got2.get(b) != full[b]]
    assert len(changed) == 1


def test_levenshtein_kernel_matches_duckdb(ray_session):
    import random

    import numpy as np

    from h3ray.ops.pairs import _levenshtein_matrix

    con2 = duckdb.connect()
    rng = random.Random(3)
    pairs = [("".join(rng.choices("abc", k=rng.randint(0, 9))),
              "".join(rng.choices("abc", k=rng.randint(0, 9))))
             for _ in range(300)]
    got = _levenshtein_matrix(np.array([p[0] for p in pairs]),
                              np.array([p[1] for p in pairs]))
    exp = [con2.execute("SELECT levenshtein(?, ?)", p).fetchone()[0]
           for p in pairs]
    assert got.tolist() == exp


def test_fuzzy_pairs_blocked_matches_brute_force(ray_session, num_buckets):
    num_buckets(3)
    import random

    import numpy as np
    import ray.data as rd

    from h3ray.ops.pairs import _levenshtein_matrix, fuzzy_pairs_blocked

    rng = random.Random(7)
    rows = [(f"g{rng.randint(0, 6)}",
             "".join(rng.choices("xyz", k=rng.randint(1, 6))))
            for _ in range(120)]
    tbl = pa.table({"grp": [r[0] for r in rows],
                    "s": [r[1] for r in rows]})

    def lev(a, b):
        return int(_levenshtein_matrix(np.array([a]), np.array([b]))[0])

    exp = set()
    for i in range(len(rows)):
        for j in range(len(rows)):
            (ga, sa), (gb, sb) = rows[i], rows[j]
            if ga == gb and sa < sb and lev(sa, sb) <= 1:
                exp.add((ga, sa, sb, lev(sa, sb)))

    for nparts in (1, 5):
        out = fuzzy_pairs_blocked(
            rd.from_arrow(tbl).repartition(nparts), "grp", "s",
            max_dist=1).to_pandas()
        got = {(r.key, r.str_a, r.str_b, r.dist)
               for r in out.itertuples()}
        assert got == exp


def test_moving_day_median_matches_brute_force(ray_session):
    import numpy as np
    import ray.data as rd

    from h3ray.ops.window import moving_day_median

    rng = np.random.default_rng(31)
    n = 400
    days = rng.integers(0, 25, n)
    ts = (np.datetime64("2024-06-01") + days.astype("timedelta64[D]")) \
        .astype("datetime64[us]")
    key = np.array(["p", "q"])[rng.integers(0, 2, n)]
    val = rng.integers(-300, 300, n) / 100.0
    tbl = pa.table({"k": key, "ts": ts, "v": val})

    cents = np.floor(val * 100 + 0.5).astype(np.int64)
    exp = {}
    for g in ("p", "q"):
        sel = key == g
        uds = np.unique(days[sel])
        sums = {d: int(cents[sel & (days == d)].sum()) for d in uds}
        for d in uds:
            win = sorted(sums[x] for x in uds if d - 7 < x <= d)
            exp[(g, str((np.datetime64("2024-06-01")
                         + np.timedelta64(int(d), "D"))))] = \
                (sums[d], win[(len(win) - 1) // 2])

    for nparts in (1, 4):
        out = moving_day_median(rd.from_arrow(tbl).repartition(nparts),
                                "k", "ts", "v", days=7).to_pandas()
        got = {(r.key, r.day): (r.day_cents, r.med_cents)
               for r in out.itertuples()}
        assert got == exp


def test_weighted_median_rule_on_crafted_weights(ray_session, tmp_path):
    """2*cum >= total picks the smallest qualifying price, including the
    exact-half boundary; verified end-to-end through crafted parquet."""
    import numpy as np

    part = pa.table({"p_partkey": [1, 2, 3],
                     "p_brand": ["B1", "B1", "B2"],
                     "p_name": ["a", "b", "c"],
                     "p_type": ["t", "t", "t"],
                     "p_size": [1, 1, 1],
                     "p_retailprice": [1.0, 1.0, 1.0]})
    # B1: prices 10.00 w=1, 20.00 w=1 -> half=1 at 10.00 (boundary)
    # B2: prices 5.00 w=1, 7.00 w=5 -> median 7.00
    li = pa.table({"l_partkey": [1, 1, 3, 3],
                   "l_quantity": [1.0, 1.0, 1.0, 5.0],
                   "l_extendedprice": [10.0, 20.0, 5.0, 7.0]})
    pq.write_table(part, tmp_path / "part.parquet")
    pq.write_table(li, tmp_path / "lineitem.parquet")
    out = entry.queries()["brand_weighted_median_price"](
        str(tmp_path)).to_pandas()
    got = dict(zip(out.p_brand, out.wmedian_cents))
    assert got == {"B1": 1000, "B2": 700}


def test_term_dictionary_ids_dense_and_sorted(ray_session):
    out = entry.queries()["docs_term_dictionary"](SF).to_pandas()
    assert list(out.term_id) == list(range(1, len(out) + 1))
    assert list(out.term) == sorted(out.term)
    assert (out.df >= 1).all()


def test_partitioned_allocate_exact_invariant(ray_session, num_buckets):
    num_buckets(4)
    import numpy as np
    import ray.data as rd

    from h3ray.ops.window import partitioned_allocate

    rng = np.random.default_rng(37)
    n = 800
    part = rng.integers(0, 120, n).astype(np.int64)
    w = rng.integers(1, 50, n).astype(np.int64)
    totals = {p: int(rng.integers(1, 10_000))
              for p in np.unique(part)}
    t = np.array([totals[p] for p in part], dtype=np.int64)
    tbl = pa.table({"p": part, "w": w, "t": t,
                    "tb": np.arange(n, dtype=np.int64)})

    for nparts in (1, 6):
        out = partitioned_allocate(
            rd.from_arrow(tbl).repartition(nparts), "p", "w", "t",
            tiebreak_col="tb").to_pandas()
        # invariant: per-partition allocations sum EXACTLY to the total
        sums = out.groupby("p")["alloc"].sum().to_dict()
        assert sums == totals
        # every allocation within 1 unit of the exact proportional share
        ww = out.groupby("p")["w"].sum().to_dict()
        for r in out.itertuples():
            exact = r.t * r.w / ww[r.p]
            assert abs(r.alloc - exact) < 1.0 + 1e-9


def test_partitioned_allocate_remainder_ranking(ray_session):
    import ray.data as rd

    from h3ray.ops.window import partitioned_allocate

    # T=10 over weights (1,1,1): base 3 each, 1 leftover -> lowest
    # tiebreak among equal remainders gets it
    tbl = pa.table({"p": [1, 1, 1], "w": [1, 1, 1], "t": [10, 10, 10],
                    "tb": [30, 10, 20]})
    out = partitioned_allocate(
        rd.from_arrow(tbl), "p", "w", "t",
        tiebreak_col="tb").to_pandas().sort_values("tb")
    assert list(out.alloc) == [4, 3, 3]   # tb=10 wins the leftover


def test_session_concurrency_invariants(ray_session):
    out = entry.queries()["events_session_concurrency"](SF).to_pandas() \
        .sort_values("epoch_s").reset_index(drop=True)
    # the running level is a prefix sum of net deltas...
    assert (out.concurrent == out.net_delta.cumsum()).all()
    # ...never negative, and every session that opens eventually closes
    assert (out.concurrent >= 0).all()
    assert out.net_delta.sum() == 0
    assert out.concurrent.iloc[-1] == 0
    assert out.concurrent.max() > 0


def test_ntile_matches_duckdb_all_shapes(ray_session):
    """_ntile == SQL NTILE for every n in 1..25 and k in {2,3,4,7},
    including n < k and uneven splits, with value ties broken by id."""
    import numpy as np

    from __ray_entry__ import _ntile

    con2 = duckdb.connect()
    rng = np.random.default_rng(41)
    for n in range(1, 26):
        vals = rng.integers(0, 5, n).astype(np.int64)   # heavy ties
        ids = rng.permutation(n).astype(np.int64)
        for k in (2, 3, 4, 7):
            got = _ntile(vals, ids, k)
            exp_by_id = dict(con2.execute(
                "SELECT i, NTILE(?) OVER (ORDER BY v, i) FROM "
                "(SELECT unnest(?) v, unnest(?) i)",
                [k, vals.tolist(), ids.tolist()]).fetchall())
            assert [exp_by_id[int(i)] for i in ids] == got.tolist(), \
                (n, k)


def test_chi2_contributions_sum_to_scipy_free_reference(ray_session):
    """Sum of per-cell contributions == the chi-square statistic
    recomputed locally from the contingency matrix (pure numpy)."""
    import numpy as np

    out = entry.queries()["docs_lang_source_chi2"](SF).to_pandas()
    piv = out.pivot(index="lang", columns="source",
                    values="observed").fillna(0).to_numpy()
    tot = piv.sum()
    exp = np.outer(piv.sum(1), piv.sum(0)) / tot
    chi2 = ((piv - exp) ** 2 / exp)[piv > 0].sum()
    assert abs(out.chi2_contrib.sum() - chi2) < 1e-6


def test_monthly_top_days_tie_semantics(ray_session):
    out = entry.queries()["monthly_top_revenue_days"](SF).to_pandas()
    assert (out.rnk <= 3).all() and (out.rnk >= 1).all()
    for m, g in out.groupby("month"):
        g = g.sort_values(["rnk", "day"])
        # dense: rank set is a prefix of 1,2,3; revenue non-increasing
        assert set(g.rnk) == set(range(1, g.rnk.max() + 1))
        rev_by_rank = g.groupby("rnk")["revenue_cents"].nunique()
        assert (rev_by_rank == 1).all()

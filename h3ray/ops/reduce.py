"""Small-result reduction: the combiner and its driver root.

Ray Data's `repartition(1)` is an all-to-all operator: at low parallelism it
stalls the streaming executor far beyond the data volume involved (measured
3x wall on combiner-sized partials). For partial-aggregate outputs that are
small BY CONSTRUCTION (combiner pattern: <= #blocks x #keys rows), the right
tree-reduce root is the driver: stream the partial blocks with
`iter_batches` (backpressured, no materialization of anything big) and merge
with one vectorized numpy/arrow pass. The result re-enters Ray Data via
`from_arrow` when a Dataset is needed downstream.

`combine` is the one rule by which a bounded grouping reaches the driver:
a batch-local Arrow `group_by` (SUM / MIN / MAX / COUNT(*), or DISTINCT
when only keys are given), a regroup at the `driver_merge` root, and a
partial schema derived from the input's for input with no rows, then a
`finish` for the last per-group arithmetic. Exact integer sums that may
pass 2^63 ride as HUGEINT (decimal128) columns (`_hugeint`), as the
exact-moment reducers do. `driver_merge` itself is left to roots that are
not a grouping: bit folds (bloom OR, fingerprint XOR), the skyline, the
OHLC tie rule, top-k and bottom-k, Misra-Gries compression, plain
collectors and the tile compaction (tests/test_combine.py keeps that list).

An unbounded key space goes through `exchange` instead: one map hashes
each row's keys into one of `default_num_buckets()` buckets, and one
`groupby("_bucket").map_groups` hands each bucket's rows to the caller's
vectorized reducer. It is the library's one hash exchange, and
`default_num_buckets` the one place that sizes it.

What a stage's columns are when Ray cannot tell is decided here too. Ray
knows the schema of a read, or of a `from_arrow` with rows, before
anything runs, but not of a `map_batches`, `map_groups` or `union`
output: `Dataset.schema()` then executes the plan up to one block, and a
mapped input with no rows reaches the next stage as a block with no
columns. `typed_map` runs its function once on an empty table of the
input's schema, `exchange` its reducer, and both record the result as
the output's schema (`_record_schema`, as `hash_join` and `semi_join` do
with theirs), so a later `schema()` runs nothing and `combine` types an
empty result from it. Where the rows themselves must carry the columns
over no input (a query's result, a `materialize()`), `typed_rows` leads
them with a typed empty block.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..io.pages import _mix64
from .sample import _key_hash


def _one_type(t) -> pa.DataType:
    if isinstance(t, pa.DataType):
        return t
    t = np.dtype(t)
    return pa.string() if t == np.dtype("O") else pa.from_numpy_dtype(t)


def arrow_schema(ds, fetch: bool = True) -> pa.Schema | None:
    """`ds`'s columns as an Arrow schema, or None when Ray holds none (an
    input with no rows and no typed block). Ray yields numpy dtypes, object
    for strings, when blocks are pandas-backed. Free for a read, a
    `from_arrow` with rows and every output this module types; for any
    other input Ray executes the plan up to one block to answer, or, with
    `fetch=False`, gives None."""
    sch = ds.schema(fetch_if_missing=fetch)
    if sch is None:
        return None
    base = getattr(sch, "base_schema", sch)
    if isinstance(base, pa.Schema):
        return base
    return pa.schema([(n, _one_type(t)) for n, t in zip(sch.names,
                                                         sch.types)])


def _record_schema(ds, schema: pa.Schema):
    """`ds`, with `schema` recorded as the answer of its `schema()`.

    This is Ray 2.49's own cache: `Dataset.schema()` stores what it
    fetched with `ExecutionPlan.cache_schema`, and `ExecutionPlan.copy`
    does not carry it to the Datasets built on `ds`. The library's one
    touch of a Ray private (tests/test_combine.py pins both)."""
    ds._plan.cache_schema(schema)
    return ds


def _typed_fn(fn, empty: pa.Table):
    """`fn`'s output schema on `empty`, a table with no rows, and `fn`
    wrapped to raise TypeError on an output of any other schema (metadata
    aside): a derivation that went wrong fails where it happens instead
    of mistyping a join downstream."""
    schema = fn(empty).schema

    @functools.wraps(fn)
    def checked(batch: pa.Table) -> pa.Table:
        out = fn(batch)
        if not out.schema.equals(schema):
            raise TypeError(
                f"{getattr(fn, '__name__', fn)} returned ({out.schema}) "
                f"where its empty-table output is ({schema})".replace(
                    "\n", ", "))
        return out

    return schema, checked


def typed_map(ds, fn, *, batch_size=None):
    """`ds.map_batches(fn, batch_format="pyarrow")` with its output schema
    known before it runs: `fn` runs once, on the driver, on an empty table
    of `ds`'s schema (so it must take a table with no rows), and that
    output's schema is recorded as the result's. A batch whose output has
    another schema raises TypeError. Over an input Ray holds no schema
    for, a plain map."""
    base = arrow_schema(ds)
    if base is None:
        return ds.map_batches(fn, batch_format="pyarrow",
                              batch_size=batch_size)
    schema, checked = _typed_fn(fn, base.empty_table())
    return _record_schema(ds.map_batches(checked, batch_format="pyarrow",
                                         batch_size=batch_size), schema)


def typed_rows(ds):
    """`ds` led by an empty block of its schema, so its rows carry its
    columns even when no block holds a row: a map over no rows emits
    blocks with no columns, which is what `materialize()`, `to_pandas()`
    or a caller would see. The schema stays recorded; over an input Ray
    holds no schema for, `ds` itself."""
    import ray.data as rd

    schema = arrow_schema(ds)
    if schema is None:
        return ds
    return _record_schema(rd.from_arrow(schema.empty_table()).union(ds),
                          schema)


def driver_merge(ds, merge_fn, schema=None) -> pa.Table:
    """Stream a small partial-aggregate Dataset to the driver and merge.
    `schema` may be a callable, asked for the schema only with no rows."""
    tables = [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch)
              else b
              for b in ds.iter_batches(batch_format="pyarrow",
                                       batch_size=None)]
    non_empty = [t for t in tables if t.num_rows]
    if not non_empty:
        # Preserve schema stability for empty results: explicit schema, else
        # an empty batch's schema, else the (already-executed) dataset's.
        if callable(schema):
            schema = schema()
        if schema is None and tables:
            schema = tables[0].schema
        if schema is None:
            ds_schema = ds.schema(fetch_if_missing=True)
            schema = getattr(ds_schema, "base_schema", None)
        empty = pa.Table.from_arrays(
            [pa.array([], f.type) for f in schema], schema=schema) \
            if schema is not None else pa.table({})
        return merge_fn(empty) if schema is not None else empty
    return merge_fn(pa.concat_tables(non_empty).combine_chunks())


def combine(ds, keys, *, sums=(), mins=(), maxs=(), count=None, prep=None,
            finish=None, schema: pa.Schema | None = None,
            batch_size=None) -> pa.Table:
    """Declarative combiner: GROUP BY `keys` with SUM / MIN / MAX / COUNT(*).

    One `map_batches` runs `prep(batch)` (the rows to group, or a table
    the batch already reduced; default the batch itself) and a
    batch-local `group_by` on it, so each block shrinks to its distinct
    keys. The bounded partials then meet at the `driver_merge` root,
    which groups again (SUM for `sums` and the `count` column, MIN for
    `mins`, MAX for `maxs`), renames every column back to its input name
    (`count` names the COUNT(*) column) and applies `finish(table)` for
    the last per-group arithmetic. Output columns: keys, count, sums,
    mins, maxs. With no aggregate at all it is a DISTINCT over `keys`.
    When no partial row arrives, prep and group_by run on an empty table
    of the input's schema (`prep` must take one), and `finish` on the
    merge of that: a read, a join, a `typed_map` or an `exchange` output
    answers it without a run; any other input Ray executes up to one
    block. Pass `schema` (the partial schema) only where a library root
    takes a caller's Dataset that may hold no schema at all (a row
    filter that drops every row emits blocks with no columns); never
    beside a typed input.

    Keyless (`keys=[]`) is a scalar root: its merge always yields ONE
    row, also over zero input rows, where that row holds COUNT 0 and
    NULL SUM / MIN / MAX (SQL's scalar-aggregate row). `finish` decides
    whether a zero count means one NULL row or no rows at all."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    aggs = ([(c, "sum") for c in sums] + [(c, "min") for c in mins]
            + [(c, "max") for c in maxs])
    names = keys + ([count] if count else []) + [c for c, _ in aggs]
    local = ([([], "count_all")] if count else []) + aggs
    final = ([(count, "sum")] if count else []) + aggs

    def partial(batch: pa.Table) -> pa.Table:
        if prep is not None:
            batch = prep(batch)
        return batch.group_by(keys).aggregate(local).rename_columns(names)

    def merge(t: pa.Table) -> pa.Table:
        g = t.group_by(keys).aggregate(final).rename_columns(names)
        if count:
            # A keyless merge with no partials at all sums no counts.
            g = g.set_column(len(keys), count, pc.fill_null(g[count], 0))
        return finish(g) if finish is not None else g

    def derived() -> pa.Schema | None:
        base = arrow_schema(ds)
        return partial(base.empty_table()).schema \
            if base is not None else None

    return driver_merge(ds.map_batches(partial, batch_format="pyarrow",
                                       batch_size=batch_size), merge,
                        schema=derived if schema is None else schema)


def default_num_buckets() -> int:
    """Reducer bucket count of every hash exchange: ~4x cluster cores, so
    no reducer holds more than ~1/(4 cores) of the data and parallelism
    is never capped by a fixed constant. Tests reach small counts by
    monkeypatching this function."""
    import ray

    if ray.is_initialized():
        return max(32, int(4 * ray.cluster_resources().get("CPU", 8)))
    return 128


def _bucket_ids(table: pa.Table, keys: list, nb: int) -> np.ndarray:
    """int32 bucket of every row: `ops.sample._key_hash` of the first key
    column, each further key mixed in, modulo `nb`."""
    h = _key_hash(table[keys[0]])
    for k in keys[1:]:
        h = _mix64(h * np.uint64(0x9E3779B97F4A7C15) + _key_hash(table[k]))
    return (h % np.uint64(nb)).astype(np.int32)


def exchange(ds, keys, fn, *, prep=None, batch_size=None):
    """Hash exchange: every row with the same `keys` reaches one call of
    `fn`, which gets a whole bucket of keys at once (run detection by
    lexsort inside, never one tiny group per key).

    One `map_batches` runs `prep(batch)` (the rows to ship; default the
    batch itself) and appends `_bucket`, the rows' key hash modulo
    `default_num_buckets()`; `groupby("_bucket").map_groups` then runs
    `fn` on each bucket's table with `_bucket` dropped. `ds` may also be
    a list of Datasets, the sides of a co-partitioned join, with `prep`
    one callable per side emitting one common schema: each side is
    tagged in its own map and the tagged sides are unioned before the
    groupby. When Ray knows the first side's schema before it runs, the
    output's is recorded: `fn`'s on that side's prep of an empty table (so
    `prep` and `fn` must take one), checked on every bucket as `typed_map`
    checks its batches."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    sides = ds if isinstance(ds, list) else [ds]
    preps = prep if isinstance(prep, list) else [prep] * len(sides)
    nb = default_num_buckets()

    def tagger(side_prep):
        def tag(batch: pa.Table) -> pa.Table:
            if side_prep is not None:
                batch = side_prep(batch)
            return batch.append_column(
                "_bucket", pa.array(_bucket_ids(batch, keys, nb)))

        return tag

    tagged = [s.map_batches(tagger(p), batch_format="pyarrow",
                            batch_size=batch_size)
              for s, p in zip(sides, preps)]
    union = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]

    schema, base = None, arrow_schema(sides[0], fetch=False)
    if base is not None:
        empty = base.empty_table()
        schema, fn = _typed_fn(fn, preps[0](empty) if preps[0] is not None
                               else empty)

    def reduce_bucket(group: pa.Table) -> pa.Table:
        if "_bucket" in group.column_names:
            group = group.drop_columns(["_bucket"])
        return fn(group)

    out = union.groupby("_bucket").map_groups(reduce_bucket,
                                              batch_format="pyarrow")
    return out if schema is None else _record_schema(out, schema)


def grouped_mode(ds, key_col: str, value_col: str,
                 out_col: str = "mode_value") -> pa.Table:
    """Per-key MODE (most frequent value), ties broken by smallest value —
    fully deterministic, matching a ROW_NUMBER()-over-counts SQL mirror.

    For bounded (key, value) pair spaces (label x label, source x lang):
    a per-batch Arrow group-count combiner collapses each batch to its
    distinct pairs, the bounded partials driver-merge, and one vectorized
    lexsort picks each key's (count DESC, value ASC) winner. Unbounded
    value spaces should pre-bucket instead (see ops.skew)."""
    def finish(g: pa.Table) -> pa.Table:
        keys = g[key_col].to_numpy(zero_copy_only=False)
        vals = g[value_col].to_numpy(zero_copy_only=False)
        cnt = g["_n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((vals, -cnt, keys))
        ks = keys[order]
        first = np.ones(ks.shape[0], dtype=bool)
        first[1:] = ks[1:] != ks[:-1]
        win = order[first]
        return pa.Table.from_arrays(
            [g[key_col].take(pa.array(win)),
             g[value_col].take(pa.array(win)),
             pa.array(cnt[win])],
            names=[key_col, out_col, "mode_count"])

    return combine(ds, [key_col, value_col], count="_n", finish=finish)


def pivot_counts(ds, row_col: str, col_col: str, col_values: list,
                 prefix: str = "c") -> pa.Table:
    """Crosstab: one output row per row_col value, one int64 count column
    per entry of `col_values` (fixed, caller-declared columns — the schema
    must not depend on the data). Per-batch (row, col) pair-count
    combiner, bounded driver merge, then a vectorized scatter into the
    |rows| x |cols| matrix. Values outside col_values are dropped."""
    def finish(g: pa.Table) -> pa.Table:
        rows = g[row_col].to_numpy(zero_copy_only=False)
        cols = g[col_col].to_numpy(zero_copy_only=False)
        cnt = g["_n"].to_numpy(zero_copy_only=False).astype(np.int64)
        urows = np.unique(rows)
        ri = np.searchsorted(urows, rows)
        lookup = {v: j for j, v in enumerate(col_values)}
        cj = np.array([lookup.get(v, -1) for v in cols], dtype=np.int64)
        mat = np.zeros((urows.shape[0], len(col_values)), dtype=np.int64)
        ok = cj >= 0
        np.add.at(mat, (ri[ok], cj[ok]), cnt[ok])
        return pa.Table.from_arrays(
            [pa.array(urows)]
            + [pa.array(mat[:, j]) for j in range(len(col_values))],
            names=[row_col] + [f"{prefix}{v}" for v in col_values])

    return combine(ds, [row_col, col_col], count="_n", finish=finish)


def profile_numeric(ds, cols: list) -> pa.Table:
    """Dataset profiler: one row per numeric column with
    (n_rows, n_null, min_micro, max_micro, sum_micro) — every statistic an
    exact micro-scaled int64 (floor(x*1e6+0.5)), so sums are
    summation-order-free and engine-portable. One combiner row per column
    per batch, bounded driver merge; all-null columns profile with null
    min/max/sum."""
    def partial(batch: pa.Table) -> pa.Table:
        rows = {"column": [], "n_rows": [], "n_null": [],
                "min_micro": [], "max_micro": [], "sum_micro": []}
        for c in cols:
            col = batch[c]
            arr = col.drop_null().to_numpy(zero_copy_only=False)
            v = np.floor(arr.astype(np.float64) * 1_000_000 + 0.5) \
                .astype(np.int64)
            rows["column"].append(c)
            rows["n_rows"].append(len(col))
            rows["n_null"].append(col.null_count)
            rows["min_micro"].append(int(v.min()) if v.size else None)
            rows["max_micro"].append(int(v.max()) if v.size else None)
            rows["sum_micro"].append(int(v.sum()) if v.size else None)
        return pa.table({
            "column": pa.array(rows["column"], type=pa.string()),
            "n_rows": pa.array(rows["n_rows"], type=pa.int64()),
            "n_null": pa.array(rows["n_null"], type=pa.int64()),
            "min_micro": pa.array(rows["min_micro"], type=pa.int64()),
            "max_micro": pa.array(rows["max_micro"], type=pa.int64()),
            "sum_micro": pa.array(rows["sum_micro"], type=pa.int64())})

    return combine(ds, "column", sums=("n_rows", "n_null", "sum_micro"),
                   mins=("min_micro",), maxs=("max_micro",), prep=partial,
                   finish=lambda g: g.select(
                       ["column", "n_rows", "n_null", "min_micro",
                        "max_micro", "sum_micro"]))


def grouped_string_agg_distinct(ds, key_col: str, value_col: str,
                                sep: str = ",",
                                out_col: str = "agg_value") -> pa.Table:
    """Per-key ordered DISTINCT string concatenation (SQL
    string_agg(DISTINCT v, sep ORDER BY v)) for bounded (key, value) pair
    spaces: per-batch distinct-pair combiner, bounded driver merge, one
    lexsort, then per-key joins over the already-distinct pair rows (the
    output is pair-space-sized by construction)."""
    def finish(g: pa.Table) -> pa.Table:
        keys = g[key_col].to_numpy(zero_copy_only=False)
        vals = g[value_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((vals, keys))
        ks, vs = keys[order], vals[order]
        first = np.ones(ks.shape[0], dtype=bool)
        first[1:] = ks[1:] != ks[:-1]
        bounds = np.flatnonzero(first).tolist() + [ks.shape[0]]
        out_keys = [ks[b] for b in bounds[:-1]]
        out_vals = [sep.join(vs[bounds[i]:bounds[i + 1]])
                    for i in range(len(bounds) - 1)]
        return pa.Table.from_arrays(
            [pa.array(out_keys, type=g[key_col].type),
             pa.array(out_vals, type=pa.string())],
            names=[key_col, out_col])

    return combine(ds, [key_col, value_col], finish=finish)


def unpivot(ds, id_col: str, value_cols: list,
            name_col: str = "metric", value_col: str = "value"):
    """Melt / UNPIVOT: (id, c1..ck) wide rows -> (id, metric, value) long
    rows, k per input row — one stacked sub-table per value column, pure
    per-batch Arrow concatenation, no shuffle. Value columns are cast to
    int64 (use exact integer metrics; float melts forfeit hash parity)."""
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        parts = [pa.table({
            id_col: batch[id_col],
            name_col: pa.array([c] * batch.num_rows, type=pa.string()),
            value_col: pc.cast(batch[c], pa.int64())})
            for c in value_cols]
        return pa.concat_tables(parts)

    return ds.map_batches(fn, batch_format="pyarrow")


def _hugeint(values) -> pa.Array:
    """int64 values as an exact decimal128(38, 0) column — Arrow's
    HUGEINT: a combine can SUM it where an int64 SUM would wrap."""
    return pa.array(np.asarray(values, np.int64)).cast(
        pa.decimal128(38, 0))


def _exact_moments(ds, key_col: str, names: list, products, out: list,
                   row) -> pa.Table:
    """Per-key exact integer moments through one `combine`: COUNT(*) as
    `_n` plus the SUM of each per-row int64 product `products(batch)`
    returns (one array per entry of `names`), every product a HUGEINT
    column so no sum can wrap. `row(n, *sums)` maps one key's Python-int
    moments to its output values, named and typed by `out` (pa fields
    after the key). Rows come out sorted by key; over an input with no
    rows, an empty table of those columns, the key typed as in the
    input's schema."""
    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({key_col: batch[key_col],
                         **{c: _hugeint(v)
                            for c, v in zip(names, products(batch))}})

    def finish(g: pa.Table) -> pa.Table:
        g = g.sort_by(key_col)
        vals = [row(n, *map(int, sums)) for n, *sums in zip(
            g["_n"].to_pylist(), *(g[c].to_pylist() for c in names))]
        cols = [list(c) for c in zip(*vals)] or [[] for _ in out]
        return pa.table([g[key_col]] + [pa.array(v, f.type)
                                       for v, f in zip(cols, out)],
                        names=[key_col] + [f.name for f in out])

    t = combine(ds, key_col, count="_n", sums=names, prep=prep,
                finish=finish, batch_size=131072)
    # no columns only when Ray holds no schema for `ds` at all
    return t if t.num_columns else pa.schema(
        [pa.field(key_col, pa.null())] + out).empty_table()


def _ints(batch: pa.Table, *cols: str) -> list:
    """Each of `cols` as an int64 numpy array."""
    return [batch[c].to_numpy(zero_copy_only=False).astype(np.int64)
            for c in cols]


def grouped_regr_slope_exact(ds, key_col: str, x_col: str, y_col: str,
                             out_col: str = "slope") -> pa.Table:
    """Exact per-key least-squares slope of INTEGER y on INTEGER x:
        slope = (n*sxy - sx*sy) / (n*sxx - sx^2)
    Same exact-integer-moments design as grouped_corr_exact (shared
    `_exact_moments` combine); numerator and denominator are
    arbitrary-precision Python ints at the root, so the ONLY float op
    is one IEEE division of two exactly-rounded operands — bit-identical
    to a SQL engine computing the same expression from HUGEINT sums
    (NOT to REGR_SLOPE, whose internal accumulation is float). Keys with
    zero x-variance emit NULL. Returns pa.Table (key_col, out_col)."""
    def row(n, sx, sy, sxx, sxy):
        den = n * sxx - sx * sx
        return (None if den <= 0 else float(n * sxy - sx * sy)
                / float(den),)

    def products(batch: pa.Table) -> tuple:
        x, y = _ints(batch, x_col, y_col)
        return x, y, x * x, x * y

    return _exact_moments(ds, key_col, ["_sx", "_sy", "_sxx", "_sxy"],
                          products, [pa.field(out_col, pa.float64())], row)


def grouped_corr_exact(ds, key_col: str, x_col: str, y_col: str,
                       out_col: str = "corr") -> pa.Table:
    """Exact per-key Pearson correlation of two INTEGER columns.

    Float summation is grouping-dependent (numpy pairwise vs SQL
    sequential differ in the last bits), so the moments are accumulated as
    EXACT integers instead: `prep` emits each row's int64 products
    (x, y, x*x, y*y, x*y) as HUGEINT (decimal128) columns, `combine` sums
    them per key with COUNT(*), and the only float ops are the FINAL
    formula, evaluated from Python ints
        corr = (n*sxy - sx*sy) / (sqrt(n*sxx - sx^2) * sqrt(n*syy - sy^2))
    on exact-integer operands — one rounding per operand, then IEEE
    mul/div/sqrt, bit-identical to a SQL engine computing the same
    expression from HUGEINT sums. Keys with zero variance emit NULL.
    Returns pa.Table (key_col, out_col)."""
    import math

    def row(n, sx, sy, sxx, syy, sxy):
        cov = n * sxy - sx * sy
        vx = n * sxx - sx * sx
        vy = n * syy - sy * sy
        if vx <= 0 or vy <= 0:
            return (None,)
        return (float(cov) / (math.sqrt(float(vx)) * math.sqrt(float(vy))),)

    def products(batch: pa.Table) -> tuple:
        x, y = _ints(batch, x_col, y_col)
        return x, y, x * x, y * y, x * y

    return _exact_moments(ds, key_col,
                          ["_sx", "_sy", "_sxx", "_syy", "_sxy"],
                          products, [pa.field(out_col, pa.float64())], row)


def grouped_var_exact(ds, key_col: str, x_col: str,
                      scale: int = 100) -> pa.Table:
    """Exact per-key sample variance + stddev of a fixed-point column.

    Same design as grouped_corr_exact: `x_col` is scaled to int64
    (FLOOR(x*scale + 0.5) — pick `scale` so the data is exactly
    representable, e.g. 100 for 2-decimal values), its (x, x*x) moments
    sum per key as HUGEINT columns, and the only float ops are the FINAL
    mirrored formula, evaluated from Python ints
        var  = (n*ss - s^2) / (n*(n-1)) / scale^2
        std  = sqrt(var)
    — one rounding per exact-integer operand then IEEE div/sqrt, so a SQL
    engine computing VAR_SAMP from HUGEINT sums of the SAME scaled ints
    matches bit-for-bit. Keys with n < 2 emit NULL (SQL VAR_SAMP).
    Returns pa.Table (key_col, n_rows, var_value, stddev_value)."""
    import math

    sq = float(scale) * float(scale)

    def products(batch: pa.Table) -> tuple:
        xf = batch[x_col].to_numpy(zero_copy_only=False)
        x = np.floor(xf * scale + 0.5).astype(np.int64)
        return x, x * x

    def row(n, s, ss):
        if n < 2:
            return n, None, None
        v = float(n * ss - s * s) / float(n * (n - 1)) / sq
        return n, v, math.sqrt(v)

    return _exact_moments(
        ds, key_col, ["_s", "_ss"], products,
        [pa.field("n_rows", pa.int64()), pa.field("var_value", pa.float64()),
         pa.field("stddev_value", pa.float64())], row)


def _lattice_prep(col_a: str, col_b: str, value_col: str):
    """Per-row (a, b, int64 value) columns of the rollup/cube combiner."""
    import pyarrow.compute as pc

    return lambda batch: pa.table({
        col_a: batch[col_a], col_b: batch[col_b],
        "_s": pc.cast(batch[value_col], pa.int64())})


def rollup_counts(ds, col_a: str, col_b: str, value_col: str,
                  count_col: str = "num_rows",
                  sum_col: str = "sum_value") -> pa.Table:
    """GROUP BY ROLLUP(col_a, col_b): COUNT(*) + SUM(int value) at three
    grouping levels — (a, b), (a, NULL), (NULL, NULL) — in ONE combiner
    pass: each batch collapses to its distinct (a, b) partials and the
    driver tree-root derives the coarser levels from the finest (the
    rollup lattice is algebraic, so upper levels cost nothing extra and
    never see raw rows). NULL marks the rolled-up column, as in SQL.

    Caveats (shared with cube_counts): actual NULL values in col_a/col_b
    would be conflated with the lattice's NULL marker rows — group columns
    must be non-null (true for every caller here); an empty input yields
    the single ()-grouping row with COUNT 0 / SUM NULL, like SQL."""
    def merge(g: pa.Table) -> pa.Table:
        a = g[col_a].to_pylist()
        b = g[col_b].to_pylist()
        n = g["_n"].to_numpy(zero_copy_only=False)
        s = g["_s"].to_numpy(zero_copy_only=False)
        rows_a: dict = {}
        for i, ka in enumerate(a):
            acc = rows_a.setdefault(ka, [0, 0])
            acc[0] += int(n[i])
            acc[1] += int(s[i])
        total = [sum(v[0] for v in rows_a.values()),
                 sum(v[1] for v in rows_a.values())]
        out_a = list(a) + list(rows_a) + [None]
        out_b = list(b) + [None] * (len(rows_a) + 1)
        out_n = list(n) + [v[0] for v in rows_a.values()] + [total[0]]
        out_s = list(s) + [v[1] for v in rows_a.values()] \
            + [total[1] if total[0] else None]
        return pa.table({col_a: pa.array(out_a, type=g[col_a].type),
                         col_b: pa.array(out_b, type=g[col_b].type),
                         count_col: pa.array(out_n, type=pa.int64()),
                         sum_col: pa.array(out_s, type=pa.int64())})

    return combine(ds, [col_a, col_b], sums=("_s",), count="_n",
                   prep=_lattice_prep(col_a, col_b, value_col),
                   finish=merge, batch_size=131072)


def cube_counts(ds, col_a: str, col_b: str, value_col: str,
                count_col: str = "num_rows",
                sum_col: str = "sum_value") -> pa.Table:
    """GROUP BY CUBE(col_a, col_b): COUNT(*) + SUM(int value) at all four
    grouping levels — (a, b), (a, NULL), (NULL, b), (NULL, NULL) — derived
    from ONE combiner pass over the finest (a, b) partials, exactly like
    rollup_counts but with the b-marginal level added (the cube lattice is
    algebraic over the finest level, so raw rows are seen once).
    Same caveats as rollup_counts: non-null group columns only; empty
    input yields the ()-grouping row with COUNT 0 / SUM NULL."""
    def merge(g: pa.Table) -> pa.Table:
        a = g[col_a].to_pylist()
        b = g[col_b].to_pylist()
        n = g["_n"].to_numpy(zero_copy_only=False)
        s = g["_s"].to_numpy(zero_copy_only=False)
        marg_a: dict = {}
        marg_b: dict = {}
        for i, (ka, kb) in enumerate(zip(a, b)):
            acc = marg_a.setdefault(ka, [0, 0])
            acc[0] += int(n[i])
            acc[1] += int(s[i])
            acc = marg_b.setdefault(kb, [0, 0])
            acc[0] += int(n[i])
            acc[1] += int(s[i])
        total = [sum(v[0] for v in marg_a.values()),
                 sum(v[1] for v in marg_a.values())]
        out_a = list(a) + list(marg_a) + [None] * (len(marg_b) + 1)
        out_b = list(b) + [None] * len(marg_a) + list(marg_b) + [None]
        out_n = (list(n) + [v[0] for v in marg_a.values()]
                 + [v[0] for v in marg_b.values()] + [total[0]])
        out_s = (list(s) + [v[1] for v in marg_a.values()]
                 + [v[1] for v in marg_b.values()]
                 + [total[1] if total[0] else None])
        return pa.table({col_a: pa.array(out_a, type=g[col_a].type),
                         col_b: pa.array(out_b, type=g[col_b].type),
                         count_col: pa.array(out_n, type=pa.int64()),
                         sum_col: pa.array(out_s, type=pa.int64())})

    return combine(ds, [col_a, col_b], sums=("_s",), count="_n",
                   prep=_lattice_prep(col_a, col_b, value_col),
                   finish=merge, batch_size=131072)


def grouping_sets_counts(ds, cols: list[str], sets: list[tuple],
                         value_col: str, count_col: str = "num_rows",
                         sum_col: str = "sum_value") -> pa.Table:
    """GROUP BY GROUPING SETS over arbitrary column subsets — the general
    form of rollup_counts / cube_counts: ONE combiner pass at the finest
    (all-cols) granularity, then every requested set is an algebraic
    re-aggregation of those partials on the driver (raw rows are seen
    once; excluded columns emit NULL, as in SQL). Same caveats as the
    lattice siblings: group columns must be non-null (actual NULLs would
    conflate with the set markers); an empty input yields the ()-grouping
    row (COUNT 0 / SUM NULL) only if () is among `sets`."""
    import pyarrow.compute as pc

    cols = list(cols)
    sets = [tuple(s) for s in sets]
    for s in sets:
        unknown = set(s) - set(cols)
        if unknown:
            raise ValueError(f"set {s} names unknown columns {unknown}")

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({**{c: batch[c] for c in cols},
                         "_s": pc.cast(batch[value_col], pa.int64())})

    def merge(fine: pa.Table) -> pa.Table:
        types = {c: fine[c].type for c in cols}
        pieces = []
        for s in sets:
            if s:
                g = fine.group_by(list(s)).aggregate(
                    [("_n", "sum"), ("_s", "sum")]) \
                    .rename_columns(list(s) + ["_n", "_s"])
            else:
                n_tot = int(pc.sum(fine["_n"]).as_py() or 0)
                s_tot = pc.sum(fine["_s"]).as_py() if n_tot else None
                g = pa.table({"_n": pa.array([n_tot], pa.int64()),
                              "_s": pa.array([s_tot], pa.int64())})
            arrays, names = [], []
            for c in cols:
                names.append(c)
                if c in s:
                    arrays.append(g[c])
                else:
                    arrays.append(pa.array([None] * g.num_rows,
                                           type=types[c]))
            arrays += [pc.cast(g["_n"], pa.int64()),
                       pc.cast(g["_s"], pa.int64())]
            names += [count_col, sum_col]
            pieces.append(pa.table(dict(zip(names, arrays))))
        return pa.concat_tables(pieces)

    return combine(ds, cols, sums=("_s",), count="_n", prep=prep,
                   finish=merge, batch_size=131072)


def _skyline_mask(lo, hi):
    """Boolean survivor mask of the 2-D skyline (minimize lo, maximize
    hi) over exact int64 arrays. A point survives iff no other point has
    lo' <= lo AND hi' >= hi with at least one strict — exact duplicates
    all survive (nothing strictly beats them). One lexsort + one prefix
    max, O(n log n), fully deterministic."""
    n = lo.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((-hi, lo))          # lo asc, hi desc within lo
    lo_s, hi_s = lo[order], hi[order]
    new = np.r_[True, lo_s[1:] != lo_s[:-1]]
    gidx = np.cumsum(new) - 1
    gmax = hi_s[new]                       # per-lo-group max hi
    prev = np.r_[np.iinfo(np.int64).min,
                 np.maximum.accumulate(gmax)[:-1]]
    keep_s = (hi_s == gmax[gidx]) & (gmax[gidx] > prev[gidx])
    mask = np.zeros(n, dtype=bool)
    mask[order] = keep_s
    return mask


def skyline_2d(ds, id_col: str, min_col: str, max_col: str) -> pa.Table:
    """Distributed 2-D skyline (Pareto front): the rows for which no
    other row is <= on min_col AND >= on max_col with one strict
    inequality. Returns a pa.Table (id_col, min_col, max_col), int64
    throughout, sorted by id.

    Block-local skyline inside map_batches, then one skyline over the
    union of block survivors at the driver root — correct because every
    global skyline point survives its own block's skyline and dominance
    is transitive, so the union contains the global front. The exchange
    moves only block survivors (O(log n) expected per block on
    independently-distributed dimensions); a deliberately
    anti-correlated corpus whose front IS the dataset would need a
    two-level grid-partitioned merge instead — out of scope here and
    loudly visible as a fat root if it ever happens."""
    cols = [id_col, min_col, max_col]
    schema = pa.schema([(c, pa.int64()) for c in cols])

    def local(batch: pa.Table) -> pa.Table:
        lo = batch[min_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        hi = batch[max_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        mask = _skyline_mask(lo, hi)
        return pa.table({
            id_col: batch[id_col].to_numpy(zero_copy_only=False)
            .astype(np.int64)[mask],
            min_col: lo[mask], max_col: hi[mask]})

    def merge(t: pa.Table) -> pa.Table:
        lo = t[min_col].to_numpy(zero_copy_only=False)
        hi = t[max_col].to_numpy(zero_copy_only=False)
        mask = _skyline_mask(lo, hi)
        ids = t[id_col].to_numpy(zero_copy_only=False)[mask]
        order = np.argsort(ids, kind="stable")
        return pa.table({id_col: ids[order],
                         min_col: lo[mask][order],
                         max_col: hi[mask][order]})

    return driver_merge(ds.map_batches(local, batch_format="pyarrow",
                                       batch_size=131072), merge,
                        schema=schema)


def cohort_counts(ds, user_col: str, month_col: str) -> pa.Table:
    """Cohort-retention matrix: for every (first-active month, month
    offset k) pair, how many distinct users from that cohort were active
    k months later. Input needs a user int column and a timestamp
    column; returns (cohort_month str 'YYYY-MM', month_k int64,
    n_customers int64).

    A DISTINCT combine over (user, month) pairs packed into one int64
    (user * 2^16 + months-since-1970) is the only exchange; the root
    gets the bounded |users| x |months| pair space, derives each
    user's cohort with one run-detection pass over the pack-sorted
    array (monotone packing => sorted by (user, month)), and bincounts
    (cohort, k). No shuffle, no per-user groups."""
    def prep(batch: pa.Table) -> pa.Table:
        u = batch[user_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        m = batch[month_col].to_numpy(zero_copy_only=False) \
            .astype("datetime64[M]").astype(np.int64)
        if (m < 0).any() or (m >= 65536).any():
            raise ValueError("cohort_counts: month outside 1970..7432")
        return pa.table({"k": u * 65536 + m})

    def finish(g: pa.Table) -> pa.Table:
        k = np.sort(g["k"].to_numpy(zero_copy_only=False))
        if k.shape[0] == 0:
            return pa.table({"cohort_month": pa.array([], pa.string()),
                             "month_k": pa.array([], pa.int64()),
                             "n_customers": pa.array([], pa.int64())})
        u = k >> 16
        m = k & 65535
        first = np.r_[True, u[1:] != u[:-1]]
        cohort = m[first][np.cumsum(first) - 1]
        off = m - cohort
        ck, counts = np.unique(cohort * 65536 + off, return_counts=True)
        cm = (ck >> 16).astype("datetime64[M]")
        return pa.table({
            "cohort_month": pa.array(np.datetime_as_string(cm)),
            "month_k": (ck & 65535).astype(np.int64),
            "n_customers": counts.astype(np.int64)})

    return combine(ds, "k", prep=prep, finish=finish, batch_size=131072,
                   schema=pa.schema([("k", pa.int64())]))


def ohlc_daily(ds, key_col: str, ts_col: str, value_col: str) -> pa.Table:
    """Daily OHLC candles per key: per (key, day) the open (MIN value
    among rows at the earliest timestamp — a deterministic, SQL-mirrorable
    tie rule), close (MAX value at the latest timestamp), low, high and
    row count. Returns (key, day 'YYYY-MM-DD', open, high, low, close
    float64, n_events int64).

    Combiner shape: each batch collapses to one candle per (key, day)
    (candle merge is associative — compare timestamps, then apply the
    tie rule on equal boundaries), so the root merges |keys| x |days|
    bounded partials. Values only move through MIN/MAX comparisons —
    no float arithmetic ever happens, so float64 passes through
    bit-exactly."""
    INT_MIN = np.iinfo(np.int64).min

    def candles(key, day, ts, val, n_in):
        """One candle row per (key, day) from per-row (or per-partial
        boundary) data; n_in sums into n_events."""
        comp = np.char.add(np.char.add(key.astype(np.str_), "\x1f"), day)
        uniq, inv = np.unique(comp, return_inverse=True)
        m = uniq.shape[0]
        mn_ts = np.full(m, np.iinfo(np.int64).max, np.int64)
        mx_ts = np.full(m, INT_MIN, np.int64)
        np.minimum.at(mn_ts, inv, ts)
        np.maximum.at(mx_ts, inv, ts)
        lo = np.full(m, np.inf)
        hi = np.full(m, -np.inf)
        np.minimum.at(lo, inv, val)
        np.maximum.at(hi, inv, val)
        op = np.full(m, np.inf)
        cl = np.full(m, -np.inf)
        at_mn = ts == mn_ts[inv]
        at_mx = ts == mx_ts[inv]
        np.minimum.at(op, inv[at_mn], val[at_mn])
        np.maximum.at(cl, inv[at_mx], val[at_mx])
        n = np.zeros(m, np.int64)
        np.add.at(n, inv, n_in)
        k_out = np.array([u.split("\x1f", 1)[0] for u in uniq.tolist()])
        d_out = np.array([u.split("\x1f", 1)[1] for u in uniq.tolist()])
        return k_out, d_out, mn_ts, mx_ts, op, hi, lo, cl, n

    out_fields = [("key", pa.string()), ("day", pa.string()),
                  ("mn_ts", pa.int64()), ("mx_ts", pa.int64()),
                  ("open", pa.float64()), ("high", pa.float64()),
                  ("low", pa.float64()), ("close", pa.float64()),
                  ("n_events", pa.int64())]
    pschema = pa.schema(out_fields)

    def partial(batch: pa.Table) -> pa.Table:
        ts64 = batch[ts_col].to_numpy(zero_copy_only=False)
        day = np.datetime_as_string(ts64.astype("datetime64[D]"))
        ts = ts64.astype("datetime64[us]").astype(np.int64)
        val = batch[value_col].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        key = batch[key_col].to_numpy(zero_copy_only=False)
        k, d, mn, mx, op, hi, lo, cl, n = candles(
            key, day, ts, val, np.ones(ts.shape[0], np.int64))
        return pa.table(dict(zip(
            [f[0] for f in out_fields],
            [pa.array(k, pa.string()), pa.array(d, pa.string()),
             mn, mx, op, hi, lo, cl, n])))

    def merge(t: pa.Table) -> pa.Table:
        key = t["key"].to_numpy(zero_copy_only=False)
        day = t["day"].to_numpy(zero_copy_only=False)
        if key.shape[0] == 0:
            return pa.table({
                "key": pa.array([], pa.string()),
                "day": pa.array([], pa.string()),
                "open": pa.array([], pa.float64()),
                "high": pa.array([], pa.float64()),
                "low": pa.array([], pa.float64()),
                "close": pa.array([], pa.float64()),
                "n_events": pa.array([], pa.int64())})
        # re-run the candle combine over partial boundary rows: each
        # partial candle contributes its open at mn_ts and its close at
        # mx_ts; min/max/count fold directly
        mn = t["mn_ts"].to_numpy(zero_copy_only=False)
        mx = t["mx_ts"].to_numpy(zero_copy_only=False)
        op = t["open"].to_numpy(zero_copy_only=False)
        cl = t["close"].to_numpy(zero_copy_only=False)
        lo = t["low"].to_numpy(zero_copy_only=False)
        hi = t["high"].to_numpy(zero_copy_only=False)
        n = t["n_events"].to_numpy(zero_copy_only=False)
        comp = np.char.add(np.char.add(key.astype(np.str_), "\x1f"),
                           day.astype(np.str_))
        uniq, inv = np.unique(comp, return_inverse=True)
        m = uniq.shape[0]
        gmn = np.full(m, np.iinfo(np.int64).max, np.int64)
        gmx = np.full(m, INT_MIN, np.int64)
        np.minimum.at(gmn, inv, mn)
        np.maximum.at(gmx, inv, mx)
        glo = np.full(m, np.inf)
        ghi = np.full(m, -np.inf)
        np.minimum.at(glo, inv, lo)
        np.maximum.at(ghi, inv, hi)
        gop = np.full(m, np.inf)
        gcl = np.full(m, -np.inf)
        sel_mn = mn == gmn[inv]
        sel_mx = mx == gmx[inv]
        np.minimum.at(gop, inv[sel_mn], op[sel_mn])
        np.maximum.at(gcl, inv[sel_mx], cl[sel_mx])
        gn = np.zeros(m, np.int64)
        np.add.at(gn, inv, n)
        k_out = [u.split("\x1f", 1)[0] for u in uniq.tolist()]
        d_out = [u.split("\x1f", 1)[1] for u in uniq.tolist()]
        return pa.table({
            "key": pa.array(k_out, pa.string()),
            "day": pa.array(d_out, pa.string()),
            "open": gop, "high": ghi, "low": glo, "close": gcl,
            "n_events": gn})

    return driver_merge(ds.map_batches(partial, batch_format="pyarrow",
                                       batch_size=131072), merge,
                        schema=pschema)


#: Buckets of `table_fingerprint`; part of its output, so fixed.
FINGERPRINT_BUCKETS = 64


def table_fingerprint(ds, key_col: str) -> pa.Table:
    """Per-hash-bucket table fingerprint for cross-run/anti-entropy
    data validation: bucket = mix64(key) % FINGERPRINT_BUCKETS, with the
    bucket's row count and the XOR-fold of all its mix64 hashes.
    XOR is commutative+associative, so the fingerprint is
    order/blocking/retry-invariant — two runs (or two replicas) agree
    iff every bucket row matches, and a mismatch localizes the damage
    to one bucket. Returns (bucket, n_rows, xor_fp int64 bit-view)."""
    schema = pa.schema([("bucket", pa.int64()), ("n_rows", pa.int64()),
                        ("xor_fp", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        k = batch[key_col].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        h = _mix64(k)
        b = (h % np.uint64(FINGERPRINT_BUCKETS)).astype(np.int64)
        acc = np.zeros(FINGERPRINT_BUCKETS, dtype=np.uint64)
        np.bitwise_xor.at(acc, b, h)
        n = np.bincount(b, minlength=FINGERPRINT_BUCKETS).astype(np.int64)
        nz = np.flatnonzero(n)
        return pa.table({"bucket": nz.astype(np.int64), "n_rows": n[nz],
                         "xor_fp": acc[nz].view(np.int64)})

    def merge(t: pa.Table) -> pa.Table:
        b = t["bucket"].to_numpy(zero_copy_only=False)
        if b.shape[0] == 0:
            return schema.empty_table()
        fp = t["xor_fp"].to_numpy(zero_copy_only=False)
        n = t["n_rows"].to_numpy(zero_copy_only=False)
        acc = np.zeros(FINGERPRINT_BUCKETS, dtype=np.int64)
        np.bitwise_xor.at(acc, b, fp)       # int64 xor == uint64 xor
        cnt = np.zeros(FINGERPRINT_BUCKETS, dtype=np.int64)
        np.add.at(cnt, b, n)
        nz = np.flatnonzero(cnt)
        return pa.table({"bucket": nz.astype(np.int64),
                         "n_rows": cnt[nz], "xor_fp": acc[nz]})

    return driver_merge(ds.map_batches(partial, batch_format="pyarrow",
                                       batch_size=131072), merge,
                        schema=schema)

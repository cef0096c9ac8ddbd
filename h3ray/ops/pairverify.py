"""Distributed candidate-pair verification routing.

The near-dup pipelines end with the same shape: a Dataset of candidate
(key_a, key_b) pairs plus a payload table (text, embeddings) keyed by the
same ids, and an exact per-pair verification that needs both endpoints'
payloads side by side. The scale-correct routing is Dataset-native end to
end:

    pairs   --(hash each pair to a _vbucket)--------> tagged pair rows
    payload --(hash_join to the DISTINCT (key, _vbucket) routing set,
               derived FROM the pairs)--------------> tagged payload rows
    union(payload rows, pair rows) -> groupby(_vbucket) -> verify per group

The pair population is unbounded on dup-heavy corpora (boilerplate-heavy
web text produces O(N) near-dup pairs), so it must never funnel through
the driver: no `to_pandas()` of the pair set, no `ray.put` broadcast
routing table. Pairs move only through shuffles; each payload row ships
once per DISTINCT verification bucket its key participates in (~once — a
key in p pairs touches at most p buckets, typically 1).

The candidate Dataset is materialized once (output-sized, stays in the
object store as distributed blocks) because it feeds two consumers — the
routing set and the pair rows — and re-deriving it would re-run the whole
candidate-generation shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..io.pages import _mix64
from .join import hash_join
from .reduce import arrow_schema, typed_map


def route_pairs_and_payload(payload_ds, pairs_ds, key_col: str,
                            payload_cols: list[str],
                            pair_a: str = "key_a", pair_b: str = "key_b",
                            keep_pair_cols: tuple[str, ...] = ()):
    """Co-locate each candidate pair with BOTH endpoints' payload rows.

    Returns (routed_ds, n_pairs). `routed_ds` is ready for
    `groupby("_vbucket").map_groups(verify)`; rows with `_kind == 0` carry
    (key_col, *payload_cols), rows with `_kind == 1` carry
    (pair_a, pair_b, *keep_pair_cols); other columns are null. Use
    `split_pair_group` inside the verifier. `n_pairs == 0` means no
    verification is needed (the caller should return its empty schema —
    a groupby over zero rows has no stable schema). Pairs spread over
    default_num_buckets() verification buckets.
    """
    from .reduce import default_num_buckets

    nb = np.uint64(default_num_buckets())

    def add_vbucket(batch: pa.Table) -> pa.Table:
        a = batch[pair_a].to_numpy(zero_copy_only=False).astype(np.int64) \
            .view(np.uint64)
        b = batch[pair_b].to_numpy(zero_copy_only=False).astype(np.int64) \
            .view(np.uint64)
        vb = (_mix64(a * np.uint64(0x9E3779B97F4A7C15) + _mix64(b)) % nb) \
            .astype(np.int64)
        return batch.append_column("_vbucket", pa.array(vb))

    cand = pairs_ds.map_batches(add_vbucket,
                                batch_format="pyarrow").materialize()
    n_pairs = cand.count()
    if n_pairs == 0:
        return None, 0

    # DISTINCT (key, bucket) routing set — a duplicate would ship the same
    # payload row into the same group twice (harmless for lookup, wasteful
    # for bytes). Batch-local np.unique first (pairs sharing a key cluster
    # within candidate blocks, so this strips most duplicates before the
    # shuffle), then the bucketed exact distinct.
    def explode_routing(batch: pa.Table) -> pa.Table:
        a = batch[pair_a].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[pair_b].to_numpy(zero_copy_only=False).astype(np.int64)
        vb = batch["_vbucket"].to_numpy(zero_copy_only=False)
        kb = np.unique(np.stack([np.concatenate([a, b]),
                                 np.concatenate([vb, vb])], axis=1), axis=0)
        return pa.Table.from_arrays(
            [pa.array(kb[:, 0]), pa.array(kb[:, 1])],
            names=[key_col, "_vbucket"])

    from .pairs import distinct_pairs

    routing = distinct_pairs(typed_map(cand, explode_routing,
                                       batch_size=65536),
                             key_col, "_vbucket")

    payload = payload_ds
    pschema = arrow_schema(payload)
    if set(pschema.names) != {key_col, *payload_cols}:
        payload = typed_map(payload, lambda b: b.select(
            [key_col] + list(payload_cols)))
    joined = hash_join(payload, routing, key_col, key_col)

    kschema = arrow_schema(cand)
    fields = ([pa.field("_vbucket", pa.int64()), pa.field("_kind", pa.int8()),
               pa.field(key_col, pa.int64())]
              + [pa.field(c, pschema.field(c).type) for c in payload_cols]
              + [pa.field(pair_a, pa.int64()), pa.field(pair_b, pa.int64())]
              + [pa.field(c, kschema.field(c).type)
                 for c in keep_pair_cols])
    union_schema = pa.schema(fields)

    def tag(kind: int):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            arrays = []
            for f in union_schema:
                if f.name == "_kind":
                    arrays.append(pa.array(np.full(n, kind, dtype=np.int8)))
                elif f.name in batch.column_names:
                    col = batch[f.name]
                    if isinstance(col, pa.ChunkedArray):
                        col = col.combine_chunks()
                    arrays.append(col.cast(f.type) if col.type != f.type
                                  else col)
                else:
                    arrays.append(pa.nulls(n, f.type))
            return pa.Table.from_arrays(arrays, schema=union_schema)

        return fn

    # batch_size coalesces tiny blocks before the verification exchange.
    routed = joined.map_batches(tag(0), batch_format="pyarrow",
                                batch_size=32768) \
        .union(cand.map_batches(tag(1), batch_format="pyarrow",
                                batch_size=65536))
    return routed, n_pairs


def split_pair_group(group: pa.Table, key_col: str,
                     payload_cols: list[str],
                     pair_a: str = "key_a", pair_b: str = "key_b",
                     keep_pair_cols: tuple[str, ...] = (),
                     dedupe_pairs: bool = True):
    """Split one verification group into payload + pair views.

    Returns (keys, payloads, a_ids, b_ids, ia, ib, extras): `payloads` maps
    payload column -> Arrow array aligned with `keys`; `ia`/`ib` index each
    pair's endpoints into that alignment; `extras` maps keep_pair_cols ->
    Arrow arrays aligned with the pairs.

    `dedupe_pairs` uniquifies (a, b) within the group — the bucket is a
    pure function of the pair, so EVERY copy of a multi-band collision
    lands in the same group and a pre-shuffle global distinct (one more
    all-to-all) is unnecessary.
    """
    kind = group["_kind"].to_numpy(zero_copy_only=False)
    d = pa.array(np.flatnonzero(kind == 0))
    p_idx = np.flatnonzero(kind == 1)
    p = pa.array(p_idx)

    def col(name):
        c = group[name]
        return c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c

    gk = col(key_col).take(d).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    payloads = {c: col(c).take(d) for c in payload_cols}
    a_ids = col(pair_a).take(p).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    b_ids = col(pair_b).take(p).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    if dedupe_pairs and a_ids.size:
        _, first = np.unique(np.stack([a_ids, b_ids], axis=1), axis=0,
                             return_index=True)
        a_ids, b_ids = a_ids[first], b_ids[first]
        p = pa.array(p_idx[first])
    order = np.argsort(gk, kind="stable")
    gs = gk[order]
    hi = max(gs.shape[0] - 1, 0)
    ia = order[np.minimum(np.searchsorted(gs, a_ids), hi)] \
        if gs.shape[0] else np.empty(0, np.int64)
    ib = order[np.minimum(np.searchsorted(gs, b_ids), hi)] \
        if gs.shape[0] else np.empty(0, np.int64)
    if a_ids.size and (not gs.shape[0] or (gk[ia] != a_ids).any()
                       or (gk[ib] != b_ids).any()):
        raise ValueError(
            "candidate pair references a key absent from the payload "
            "dataset — pairs and payload must come from the same corpus")
    extras = {c: col(c).take(p) for c in keep_pair_cols}
    return gk, payloads, a_ids, b_ids, ia, ib, extras

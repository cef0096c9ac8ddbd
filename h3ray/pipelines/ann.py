"""Approximate-nearest-neighbor search over an embedding column.

- `brute_force_topk`: baseline — per-batch numpy matmul of the corpus block
  against a *broadcast* query matrix (ray.put once, fetched per actor), then
  a global top-k merge of the tiny per-batch partials. No shuffle of the
  corpus; the reduce moves n_batches x k rows.
- `lsh_topk`: scale path — random-hyperplane LSH buckets; only colliding
  buckets are scanned (recall < 1, tunable by n_tables/n_bits).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _embedding_matrix(batch: pa.Table, col: str,
                      dtype=np.float32) -> np.ndarray:
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if not n:  # np.stack needs at least one row
        return np.empty((0, 0), dtype)
    if arr.null_count == 0:
        import pyarrow.compute as pc

        widths = pc.list_value_length(arr).to_numpy(zero_copy_only=False)
        if (widths == widths[0]).all():
            # Constant-width lists: reshape the flat values buffer directly
            # instead of a per-row np.stack object loop.
            flat = arr.flatten().to_numpy(zero_copy_only=False)
            return flat.reshape(n, int(widths[0])).astype(dtype, copy=False)
    return np.stack(arr.to_numpy(zero_copy_only=False)).astype(dtype)


class BruteForceScorer:
    """Actor-pool stage: cosine scores of each corpus block vs all queries."""

    def __init__(self, queries_ref, id_col: str, emb_col: str, k: int):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, np.ndarray) \
            else queries_ref
        qn = np.linalg.norm(q, axis=1, keepdims=True)
        self.q = (q / np.clip(qn, 1e-30, None)).astype(np.float32)  # (m, d)
        self.id_col = id_col
        self.emb_col = emb_col
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = _embedding_matrix(batch, self.emb_col)  # (n, d)
        xn = np.linalg.norm(x, axis=1, keepdims=True)
        x = x / np.clip(xn, 1e-30, None)
        sims = x @ self.q.T  # (n, m)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        k = min(self.k, sims.shape[0])
        # Per-batch partial top-k per query.
        part = np.argpartition(-sims, k - 1, axis=0)[:k]  # (k, m)
        m = sims.shape[1]
        out_q = np.repeat(np.arange(m, dtype=np.int64)[None, :], k, axis=0)
        return pa.Table.from_arrays(
            [pa.array(out_q.ravel()),
             pa.array(ids[part.ravel()]),
             pa.array(np.take_along_axis(sims, part, axis=0).ravel()
                      .astype(np.float64))],
            names=["query_id", self.id_col, "cosine"])

def _rank_topk(partials, *, n_queries: int, k: int, id_col: str):
    """Final per-query ranking of (query_id, id, cosine) scorer partials
    through knn.rank_topk, the root the kNN joins rank with: each scorer
    batch already emitted <= n_queries * k partial rows, so the driver
    tree-root ranks them while that bound is small, else a query-hash
    exchange. No per-query Python/pandas callback on either path.
    Ties break by id ascending (numeric id columns; hash string ids
    upstream if needed)."""
    from ..ops.skew import _segmented_top_k
    from .knn import rank_topk

    def top_k(tbl: pa.Table) -> pa.Table:
        return _segmented_top_k(tbl, "query_id", "cosine", k, id_col)

    return rank_topk(partials, top_k, n_queries * k)


def brute_force_topk(ds, queries: np.ndarray, *, id_col: str = "vec_id",
                     emb_col: str = "embedding", k: int = 10,
                     concurrency: int = 4):
    """Exact cosine top-k per query over the embedding Dataset."""
    import ray

    queries = np.asarray(queries, dtype=np.float32)
    if queries.ndim == 1:
        queries = queries[None, :]
    qref = ray.put(queries)

    partials = ds.select_columns([id_col, emb_col]).map_batches(
        BruteForceScorer,
        fn_constructor_args=(qref, id_col, emb_col, k),
        batch_format="pyarrow", batch_size=4096, concurrency=_pool(concurrency))
    return _rank_topk(partials, n_queries=queries.shape[0], k=k,
                      id_col=id_col)


# ---------------------------------------------------------------------------
# LSH-bucketed variant (scale path)
# ---------------------------------------------------------------------------

def lsh_planes(dim: int, n_bits: int = 12, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_bits, dim)).astype(np.float32)


def lsh_topk(ds, queries: np.ndarray, *, id_col: str = "vec_id",
             emb_col: str = "embedding", k: int = 10, n_bits: int = 8,
             n_tables: int = 4, multiprobe: int = 1,
             concurrency: int = 4):
    """ANN top-k scanning only LSH buckets near a query signature.

    Recall levers (both multiply the scanned fraction, never the exchange —
    the filter is a zero-shuffle map_batches):
    - `n_tables` independent hyperplane sets; a row is scanned if ANY
      table buckets it with a query (misses must happen in every table).
    - `multiprobe=1` also scans buckets at Hamming distance 1 from each
      query signature (the most likely near-miss buckets), the standard
      multiprobe-LSH trick — 1+n_bits probes per query per table instead
      of 2^n_bits buckets.
    Defaults scan a few % of a uniform corpus; single-table exact-bucket
    probing (n_tables=1, multiprobe=0) measured recall@10 ~0.2 on random
    64-dim data, the defaults ~0.9+ (tests/test_ann.py pins the bound).
    """
    import ray

    queries = np.asarray(queries, dtype=np.float32)
    if queries.ndim == 1:
        queries = queries[None, :]
    weights = (1 << np.arange(n_bits, dtype=np.int64))
    tables = []  # (planes, wanted buckets) per table, broadcast via closure
    for t in range(n_tables):
        planes = lsh_planes(queries.shape[1], n_bits, seed=7 + t)
        q_buckets = (((queries @ planes.T) > 0).astype(np.int64)
                     * weights[None, :]).sum(axis=1)
        probes = [q_buckets]
        if multiprobe >= 1:
            probes += [q_buckets ^ (1 << b) for b in range(n_bits)]
        tables.append((planes, np.unique(np.concatenate(probes))))
    qref = ray.put(queries)

    def keep(batch: pa.Table) -> pa.Table:
        x = _embedding_matrix(batch, emb_col)
        mask = np.zeros(x.shape[0], dtype=bool)
        for planes, wanted in tables:
            todo = ~mask
            if not todo.any():
                break
            sig = (x[todo] @ planes.T) > 0
            bucket = (sig.astype(np.int64) * weights[None, :]).sum(axis=1)
            mask[todo] = np.isin(bucket, wanted)
        return batch.filter(pa.array(mask))

    pruned = ds.select_columns([id_col, emb_col]).map_batches(
        keep, batch_format="pyarrow", batch_size=4096)
    partials = pruned.map_batches(
        BruteForceScorer, fn_constructor_args=(qref, id_col, emb_col, k),
        batch_format="pyarrow", batch_size=4096, concurrency=_pool(concurrency))
    return _rank_topk(partials, n_queries=queries.shape[0], k=k,
                      id_col=id_col)



def topk_recall(got, exact, *, query_col: str = "query_id",
                id_col: str = "vec_id") -> float:
    """Mean per-query fraction of the exact top-k recovered by an ANN
    result (two small driver-side (query_id, vec_id) frames). Shared by
    the ann_topk_lsh telemetry probe and its pytest bound so the logged
    number and the tested number are the same metric."""
    e = exact.groupby(query_col)[id_col].apply(set)
    g = got.groupby(query_col)[id_col].apply(set)
    fracs = [len(g.get(q, set()) & s) / len(s) for q, s in e.items() if s]
    return float(np.mean(fracs)) if fracs else 1.0


def _pool(concurrency):
    """Actor-pool concurrency spec: an int becomes an autoscaling (1, n)
    pool so the pool never pre-reserves every CPU against the shuffle
    operators sharing the DAG (a fixed-size pool deadlocks the streaming
    executor on small cpu counts when AllToAll ops need slots too)."""
    return (1, concurrency) if isinstance(concurrency, int) else concurrency


def _kmeans(sample: np.ndarray, n_centroids: int, n_iter: int = 10,
            seed: int = 11) -> np.ndarray:
    """Small deterministic spherical k-means on a driver-side sample."""
    rng = np.random.default_rng(seed)
    sample = sample / np.clip(
        np.linalg.norm(sample, axis=1, keepdims=True), 1e-30, None)
    cent = sample[rng.choice(sample.shape[0],
                             size=min(n_centroids, sample.shape[0]),
                             replace=False)].copy()
    for _ in range(n_iter):
        assign = np.argmax(sample @ cent.T, axis=1)
        for c in range(cent.shape[0]):
            members = sample[assign == c]
            if members.shape[0]:
                m = members.mean(axis=0)
                cent[c] = m / max(np.linalg.norm(m), 1e-30)
    return cent.astype(np.float32)


def ivf_topk(ds, queries: np.ndarray, *, id_col: str = "vec_id",
             emb_col: str = "embedding", k: int = 10, n_centroids: int = 16,
             nprobe: int = 4, sample_rows: int = 4096,
             concurrency: int = 4):
    """IVF ANN: coarse-quantize the corpus against k-means centroids fitted
    on a driver-side sample (small by construction), scan only rows whose
    centroid is among each query's `nprobe` nearest lists.

    nprobe == n_centroids degenerates to the exact brute-force scan (every
    row probed), which is how the oracle checks it; smaller nprobe trades
    recall for a ~nprobe/n_centroids scan fraction — the IVF scale knob.
    """
    import ray

    queries = np.asarray(queries, dtype=np.float32)
    if queries.ndim == 1:
        queries = queries[None, :]
    import ray.data as rd

    sample_parts = [
        pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
        for b in ds.select_columns([emb_col]).limit(sample_rows)
        .iter_batches(batch_format="pyarrow", batch_size=None)]
    sample_parts = [t for t in sample_parts if t.num_rows]
    if not sample_parts:
        # Empty corpus: no lists to probe, schema-stable empty result.
        return rd.from_arrow(pa.schema(
            [("query_id", pa.int64()), (id_col, pa.int64()),
             ("cosine", pa.float64())]).empty_table())
    cent = _kmeans(_embedding_matrix(pa.concat_tables(sample_parts),
                                     emb_col), n_centroids)
    qn = queries / np.clip(
        np.linalg.norm(queries, axis=1, keepdims=True), 1e-30, None)
    q_lists = np.argsort(-(qn @ cent.T), axis=1)[:, :nprobe]  # (m, nprobe)
    probed = np.unique(q_lists)
    qref = ray.put(queries)

    def assign_and_prune(batch: pa.Table) -> pa.Table:
        x = _embedding_matrix(batch, emb_col)
        xn = x / np.clip(np.linalg.norm(x, axis=1, keepdims=True),
                         1e-30, None)
        lists = np.argmax(xn @ cent.T, axis=1)
        keep = np.isin(lists, probed)
        return batch.filter(pa.array(keep))

    pruned = ds.select_columns([id_col, emb_col]).map_batches(
        assign_and_prune, batch_format="pyarrow", batch_size=4096)
    partials = pruned.map_batches(
        BruteForceScorer, fn_constructor_args=(qref, id_col, emb_col, k),
        batch_format="pyarrow", batch_size=4096, concurrency=_pool(concurrency))
    return _rank_topk(partials, n_queries=queries.shape[0], k=k,
                      id_col=id_col)


def _norm_block(tbl: pa.Table, id_col: str, emb_col: str):
    """(ids, row-normalized float64 matrix) of one corpus block."""
    if isinstance(tbl, pa.RecordBatch):
        tbl = pa.Table.from_batches([tbl])
    # float64 so thresholding agrees with a float64 SQL oracle.
    m = _embedding_matrix(tbl, emb_col, dtype=np.float64)
    n = np.linalg.norm(m, axis=1, keepdims=True)
    return (tbl[id_col].to_numpy(zero_copy_only=False),
            m / np.clip(n, 1e-30, None))


def _pair_schema() -> pa.Schema:
    return pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                      ("cosine", pa.float64())])


def cosine_dup_pairs(ds, *, id_col: str = "vec_id", emb_col: str = "embedding",
                     threshold: float = 0.9, num_cpus: float = 1.0,
                     target_block_rows: int = 16384, max_blocks: int = 256):
    """Exact embedding-cosine near-duplicate pairs (id_a < id_b).

    Distributed block-pair join: the corpus is re-blocked to
    `target_block_rows` rows, block refs STAY in the object store (no driver
    concat, no full-matrix broadcast), and one Ray task per block pair
    (i <= j) emits that pair's hits. Compute is the exact-join
    O(N^2 d / cluster) — inherent to exact threshold semantics; memory per
    task is two blocks. The raw-task fan-out is used because the Dataset API
    has no cross join; results re-enter Ray Data via from_arrow_refs. For
    recall<1 at corpus sizes where O(N^2) is off the table, use
    `cosine_dup_pairs_lsh`.

    `max_blocks` guards the O(B^2) driver task fan-out: past it this path
    is mis-deployed (256 blocks is already ~33k task submissions) and the
    call refuses with a pointer to the LSH path instead of silently
    submitting millions of tasks. Raise it only for a deliberate mid-size
    exact join.
    """
    import ray
    import ray.data as rd

    from ..ops.reduce import typed_map

    blocks = typed_map(ds, lambda b: b.select([id_col, emb_col]),
                       batch_size=target_block_rows).to_arrow_refs()
    if len(blocks) > max_blocks:
        raise ValueError(
            f"cosine_dup_pairs is the exact O(N^2) path: {len(blocks)} "
            f"corpus blocks would submit ~{len(blocks) * (len(blocks) + 1) // 2}"
            f" block-pair tasks (max_blocks={max_blocks}). Use "
            "cosine_dup_pairs_lsh at this corpus size, or raise max_blocks "
            "deliberately.")

    @ray.remote(num_cpus=num_cpus)
    def score_pair(ta, tb, same: bool) -> pa.Table:
        ids_a, mat_a = _norm_block(ta, id_col, emb_col)
        ids_b, mat_b = _norm_block(tb, id_col, emb_col)
        if ids_a.size == 0 or ids_b.size == 0:
            return _pair_schema().empty_table()
        sims = mat_a @ mat_b.T
        hit = sims >= threshold
        if same:
            # Upper triangle only (each in-block pair once).
            hit &= ids_a[:, None] < ids_b[None, :]
        else:
            hit &= ids_a[:, None] != ids_b[None, :]
        r, c = np.nonzero(hit)
        a, b = ids_a[r], ids_b[c]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.Table.from_arrays(
            [pa.array(lo.astype(np.int64)), pa.array(hi.astype(np.int64)),
             pa.array(sims[r, c].astype(np.float64))],
            schema=_pair_schema())

    refs = [score_pair.remote(blocks[i], blocks[j], i == j)
            for i in range(len(blocks)) for j in range(i, len(blocks))]
    return rd.from_arrow_refs(refs)


def cosine_dup_pairs_lsh(ds, *, id_col: str = "vec_id",
                         emb_col: str = "embedding", threshold: float = 0.9,
                         n_bands: int = 16, bits_per_band: int = 8,
                         seed: int = 23):
    """Near-dup pairs via hyperplane-LSH banding + exact join-back verify.

    The 100-TB path, keys-only through the wide steps: each row explodes
    into `n_bands` (id, band, signature) rows — NO embedding payload —
    identical signatures co-locate via one exchange and emit distinct
    candidate pairs; embeddings then hash-join back to the pairs'
    verification buckets (`ops.pairverify`), so each embedding traverses an
    all-to-all ~once (once per distinct bucket membership), not once per
    band. Exact float64 cosine runs per candidate pair. Recall < 1 (a pair
    at cosine c collides with prob 1-(1-p^bits)^bands, p = 1 - acos(c)/pi);
    raise n_bands / lower bits_per_band for higher recall.
    """
    import ray.data as rd

    from ..io.pages import _mix64
    from ..ops.pairverify import route_pairs_and_payload, split_pair_group
    from ..ops.reduce import exchange
    from ..text.dedup import _collision_runs

    # Planes are built lazily from the first batch's dim (seeded, so every
    # task regenerates the identical matrix).
    planes_by_band = None

    def band_stage(batch: pa.Table) -> pa.Table:
        nonlocal planes_by_band
        x = _embedding_matrix(batch, emb_col, dtype=np.float32)
        if planes_by_band is None:
            r = np.random.default_rng(seed)
            planes_by_band = r.standard_normal(
                (n_bands * bits_per_band, x.shape[1])).astype(np.float32)
        sig_bits = (x @ planes_by_band.T) > 0  # (n, bands*bits)
        weights = (1 << np.arange(bits_per_band, dtype=np.int64))
        sigs = sig_bits.reshape(-1, n_bands, bits_per_band).astype(np.int64)
        sig_val = (sigs * weights[None, None, :]).sum(axis=2)  # (n, bands)
        n = x.shape[0]
        rows = np.repeat(np.arange(n), n_bands)
        band = np.tile(np.arange(n_bands, dtype=np.int32), n)
        sig_flat = sig_val.reshape(-1)
        mixed = _mix64(sig_flat.astype(np.uint64)
                       + band.astype(np.uint64)
                       * np.uint64(0x9E3779B97F4A7C15)).view(np.int64)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(ids[rows]), pa.array(band), pa.array(mixed)],
            names=[id_col, "band", "band_sig"])

    def pairs(group: pa.Table) -> pa.Table:
        ks = group[id_col].to_numpy(zero_copy_only=False)
        band = group["band"].to_numpy(zero_copy_only=False)
        sig = group["band_sig"].to_numpy(zero_copy_only=False)
        order, starts, ends = _collision_runs((band, sig, ks))
        out_a, out_b = [], []
        for s, e in zip(starts, ends):
            idx = order[s:e]
            ia, ib = np.triu_indices(idx.shape[0], 1)
            a, b = ks[idx[ia]], ks[idx[ib]]
            keep = a != b
            out_a.append(np.minimum(a[keep], b[keep]))
            out_b.append(np.maximum(a[keep], b[keep]))
        a = np.concatenate(out_a) if out_a else np.empty(0, np.int64)
        b = np.concatenate(out_b) if out_b else np.empty(0, np.int64)
        return pa.Table.from_arrays(
            [pa.array(a.astype(np.int64)), pa.array(b.astype(np.int64))],
            names=["id_a", "id_b"])

    cand = exchange(ds.select_columns([id_col, emb_col]), "band_sig", pairs,
                    prep=band_stage, batch_size=8192)
    # A pair colliding in several bands is deduped IN the verification
    # group (all copies hash to the same bucket) — no extra all-to-all.
    routed, n_pairs = route_pairs_and_payload(
        ds, cand, id_col, [emb_col], pair_a="id_a", pair_b="id_b")
    if n_pairs == 0:
        return rd.from_arrow(_pair_schema().empty_table())

    def verify(group: pa.Table) -> pa.Table:
        _, payloads, a_ids, b_ids, ia, ib, _ = split_pair_group(
            group, id_col, [emb_col], pair_a="id_a", pair_b="id_b")
        if a_ids.size == 0:
            return _pair_schema().empty_table()
        # float64 so thresholding agrees with a float64 SQL oracle.
        mat = _embedding_matrix(
            pa.table({emb_col: payloads[emb_col]}), emb_col,
            dtype=np.float64)
        mat /= np.clip(np.linalg.norm(mat, axis=1, keepdims=True),
                       1e-30, None)
        cos = np.einsum("ij,ij->i", mat[ia], mat[ib])
        keep = cos >= threshold
        return pa.Table.from_arrays(
            [pa.array(a_ids[keep]), pa.array(b_ids[keep]),
             pa.array(cos[keep].astype(np.float64))],
            schema=_pair_schema())

    return routed.groupby("_vbucket").map_groups(verify,
                                                 batch_format="pyarrow")


def centroids_by_label(ds, *, label_col: str = "label",
                       emb_col: str = "embedding") -> pa.Table:
    """Per-label embedding centroid sums: (label, dim, sum_micro, n_vecs).

    The training-data shape for per-cluster statistics: each batch quantizes
    elements to micro-int64 (exact, summation-order-free) and segment-sums
    per label with one np.add.at over a (labels x dim) accumulator, so a
    batch of B vectors collapses to |labels| x dim partial rows before any
    exchange; partials merge at the driver tree root (bounded by the label
    space). Consumers divide sum_micro / n_vecs themselves — emitting the
    division here would pin a floor-vs-truncate convention the caller may
    not want (and SQL dialects disagree on).
    """
    from ..ops.reduce import combine

    def partial(batch: pa.Table) -> pa.Table:
        x = _embedding_matrix(batch, emb_col, dtype=np.float64)
        micro = np.floor(x * 1_000_000 + 0.5).astype(np.int64)
        lab = batch[label_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        labs, inv = np.unique(lab, return_inverse=True)
        acc = np.zeros((labs.shape[0], micro.shape[1]), dtype=np.int64)
        np.add.at(acc, inv, micro)
        counts = np.bincount(inv, minlength=labs.shape[0]).astype(np.int64)
        d = micro.shape[1]
        return pa.table({
            "label": np.repeat(labs, d),
            "dim": np.tile(np.arange(1, d + 1, dtype=np.int64),
                           labs.shape[0]),
            "sum_micro": acc.reshape(-1),
            "n_vecs": np.repeat(counts, d)})

    return combine(ds, ["label", "dim"], sums=["sum_micro", "n_vecs"],
                   prep=partial, batch_size=65536,
                   schema=pa.schema([(c, pa.int64()) for c in
                                     ("label", "dim", "sum_micro",
                                      "n_vecs")]))


def quantize_int8(ds, *, id_col: str = "vec_id",
                  emb_col: str = "embedding"):
    """Int8 vector quantization (the storage/serving compression step):
    per vector, q8[d] = floor(127 * e[d] / ||e|| + 0.5), emitted unnested
    as (id, dim, q8) with dim 1-based.

    Engine-portable determinism: elements quantize to micro-int64 first,
    the squared norm is an EXACT integer sum (order-free, unlike float
    summation whose grouping differs between numpy and SQL), and the only
    float ops are one correctly-rounded sqrt and one division — identical
    doubles in every IEEE-754 engine, so the floor never flips. Zero
    vectors quantize to all-zero. Pure per-batch numpy; no shuffle."""

    def fn(batch: pa.Table) -> pa.Table:
        x = _embedding_matrix(batch, emb_col, dtype=np.float64)
        n, d = x.shape
        micro = np.floor(x * 1_000_000 + 0.5).astype(np.int64)
        norm2 = (micro * micro).sum(axis=1)
        norm = np.sqrt(norm2.astype(np.float64))
        safe = np.where(norm == 0.0, 1.0, norm)
        q8 = np.floor(127.0 * micro / safe[:, None] + 0.5).astype(np.int64)
        q8[norm == 0.0] = 0
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: np.repeat(ids, d),
            "dim": np.tile(np.arange(1, d + 1, dtype=np.int64), n),
            "q8": q8.ravel()})

    return ds.map_batches(fn, batch_format="pyarrow")


def kmeans_fit(ds, *, emb_col: str = "embedding", n_clusters: int = 8,
               n_iter: int = 5, sample_rows: int = 4096, seed: int = 11):
    """Distributed spherical k-means (Lloyd): the corpus-scale variant of
    the driver-sample `_kmeans` used by IVF.

    Each iteration is ONE streaming pass: centroids broadcast via ray.put,
    every batch assigns rows (argmax cosine) and collapses to
    (cluster x dim) micro-int64 partial sums + counts (exact,
    summation-order-free — the centroids_by_label trick, so the fit is
    bit-deterministic regardless of block boundaries and of Ray's
    run-to-run block arrival order — the init sample is lexsorted),
    partials tree-merge
    at the driver (bounded by n_clusters x dim), centroids renormalize.
    Embeddings never shuffle; the exchange per iteration is
    O(blocks x n_clusters x dim) partial rows. Returns (n_clusters, dim)
    float32 centroids. Empty clusters keep their previous centroid."""
    import ray

    init = _kmeans(_sample_matrix(ds, emb_col, sample_rows), n_clusters,
                   n_iter=0, seed=seed)
    cent = init
    for _ in range(n_iter):
        cent = _kmeans_step(ds, emb_col, cent)
    return cent


def _sample_matrix(ds, emb_col: str, sample_rows: int) -> np.ndarray:
    parts = [
        pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
        for b in ds.select_columns([emb_col]).limit(sample_rows)
        .iter_batches(batch_format="pyarrow", batch_size=None)]
    parts = [t for t in parts if t.num_rows]
    if not parts:
        raise ValueError("kmeans_fit: empty input dataset")
    m = _embedding_matrix(pa.concat_tables(parts), emb_col)
    # Ray's block arrival order under limit+iter_batches is NOT stable run
    # to run, and the seeded init draws row indices — lexsort the sample so
    # the init (hence the whole fit) is row-order-free. When the dataset
    # exceeds sample_rows, WHICH rows land in the sample still follows
    # Ray's limit (first-N of an unordered stream); the fit is then
    # deterministic per sample, not per run — callers needing cross-run
    # determinism (the emb_kmeans_assign oracle) keep the corpus within
    # sample_rows.
    return m[np.lexsort(m.T[::-1])]


def _kmeans_step(ds, emb_col: str, cent: np.ndarray) -> np.ndarray:
    import ray

    from ..ops.reduce import combine

    cref = ray.put(cent)

    def partial(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        x = _embedding_matrix(batch, emb_col, dtype=np.float64)
        xn = x / np.clip(np.linalg.norm(x, axis=1, keepdims=True),
                         1e-30, None)
        assign = np.argmax(xn @ c.T.astype(np.float64), axis=1)
        micro = np.floor(xn * 1_000_000 + 0.5).astype(np.int64)
        acc = np.zeros((c.shape[0], x.shape[1]), dtype=np.int64)
        np.add.at(acc, assign, micro)
        counts = np.bincount(assign, minlength=c.shape[0]).astype(np.int64)
        d = x.shape[1]
        return pa.table({
            "cluster": np.repeat(np.arange(c.shape[0], dtype=np.int64), d),
            "dim": np.tile(np.arange(d, dtype=np.int64), c.shape[0]),
            "sum_micro": acc.reshape(-1),
            "n_vecs": np.repeat(counts, d)})

    m = combine(ds.select_columns([emb_col]), ["cluster", "dim"],
                sums=["sum_micro", "n_vecs"], prep=partial, batch_size=8192)
    if m.num_rows == 0:
        return cent
    cl = m["cluster"].to_numpy(zero_copy_only=False)
    dim = m["dim"].to_numpy(zero_copy_only=False)
    sm = m["sum_micro"].to_numpy(zero_copy_only=False)
    nv = m["n_vecs"].to_numpy(zero_copy_only=False)
    new = cent.astype(np.float64).copy()
    d = cent.shape[1]
    sums = np.zeros((cent.shape[0], d), dtype=np.float64)
    counts = np.zeros(cent.shape[0], dtype=np.int64)
    sums[cl, dim] = sm
    counts[cl] = nv
    nonempty = counts > 0
    mean = sums[nonempty] / counts[nonempty, None]
    norm = np.clip(np.linalg.norm(mean, axis=1, keepdims=True),
                   1e-30, None)
    new[nonempty] = mean / norm
    return new.astype(np.float32)


def kmeans_assign(ds, centroids: np.ndarray, *, id_col: str = "vec_id",
                  emb_col: str = "embedding"):
    """Assignment pass: (id, cluster, cosine-to-centroid) per row against
    broadcast centroids — one zero-shuffle map_batches."""
    import ray

    cref = ray.put(centroids.astype(np.float32))

    def fn(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        x = _embedding_matrix(batch, emb_col, dtype=np.float64)
        xn = x / np.clip(np.linalg.norm(x, axis=1, keepdims=True),
                         1e-30, None)
        sims = xn @ c.T.astype(np.float64)
        assign = np.argmax(sims, axis=1)
        best = np.take_along_axis(sims, assign[:, None], axis=1).ravel()
        return pa.table({id_col: batch[id_col],
                         "cluster": assign.astype(np.int64),
                         "cosine": best})

    return ds.select_columns([id_col, emb_col]).map_batches(
        fn, batch_format="pyarrow", batch_size=8192)


def label_cohesion(ds, *, label_col: str = "label",
                   emb_col: str = "embedding") -> pa.Table:
    """Per-label cluster cohesion: the exact mean pairwise dot product
    <v_i, v_j> over all ordered pairs i != j within each label, via the
    sums identity sum_{i!=j}<v_i,v_j> = ||sum_i v_i||^2 - sum_i ||v_i||^2
    — NO pairwise pass ever runs. Returns (label int64, n_vecs int64,
    mean_pair_dot float64; NULL when n < 2).

    Exactness contract (the centroids_by_label shape): elements quantize
    to micro-int64 (order-free integer sums), each batch collapses to
    |labels| x dim partial rows + per-label (n, sum of squared norms),
    the bounded root squares the per-dim sums as PYTHON BIGINTS (a
    5000-vector label's S_d^2 passes 2^63) and performs ONE IEEE
    division by n(n-1)*10^12 — bit-identical to a HUGEINT SQL mirror."""
    from ..ops.reduce import combine

    def partial(batch: pa.Table) -> pa.Table:
        x = _embedding_matrix(batch, emb_col, dtype=np.float64)
        micro = np.floor(x * 1_000_000 + 0.5).astype(np.int64)
        lab = batch[label_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        labs, inv = np.unique(lab, return_inverse=True)
        d = micro.shape[1]
        acc = np.zeros((labs.shape[0], d), dtype=np.int64)
        np.add.at(acc, inv, micro)
        counts = np.bincount(inv, minlength=labs.shape[0]) \
            .astype(np.int64)
        sq = np.zeros(labs.shape[0], dtype=np.int64)
        np.add.at(sq, inv, np.einsum("ij,ij->i", micro, micro))
        # per-label (n, sum_sq) ride along repeated per dim; the merge
        # reads them from the dim==1 rows only, so repetition is safe
        return pa.table({
            "label": np.repeat(labs, d),
            "dim": np.tile(np.arange(1, d + 1, dtype=np.int64),
                           labs.shape[0]),
            "sum_micro": acc.reshape(-1),
            "sum_sq": np.repeat(sq, d),
            "n_vecs": np.repeat(counts, d)})

    def finish(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if g.num_rows == 0:
            return pa.table({"label": pa.array([], pa.int64()),
                             "n_vecs": pa.array([], pa.int64()),
                             "mean_pair_dot": pa.array([], pa.float64())})
        lab = g["label"].to_numpy(zero_copy_only=False)
        s = g["sum_micro"].to_numpy(zero_copy_only=False)
        first = g.filter(pc.equal(g["dim"], 1))
        labs = first["label"].to_numpy(zero_copy_only=False)
        sq = first["sum_sq"].to_numpy(zero_copy_only=False)
        n = first["n_vecs"].to_numpy(zero_copy_only=False)
        order = np.argsort(labs, kind="stable")
        labs, sq, n = labs[order], sq[order], n[order]
        norm2 = {int(k): 0 for k in labs}
        for k, v in zip(lab.tolist(), s.tolist()):
            norm2[k] += v * v                     # Python bigints
        out = []
        for k, q, c in zip(labs.tolist(), sq.tolist(), n.tolist()):
            if c < 2:
                out.append(None)
            else:
                num = norm2[k] - q
                out.append(float(num)
                           / float(c * (c - 1) * 1_000_000_000_000))
        return pa.table({"label": pa.array(labs.tolist(), pa.int64()),
                         "n_vecs": pa.array(n.tolist(), pa.int64()),
                         "mean_pair_dot": pa.array(out, pa.float64())})

    return combine(
        ds, ["label", "dim"], sums=["sum_micro", "sum_sq", "n_vecs"],
        prep=partial, finish=finish, batch_size=65536,
        schema=pa.schema([("label", pa.int64()), ("dim", pa.int64()),
                          ("sum_micro", pa.int64()),
                          ("sum_sq", pa.int64()),
                          ("n_vecs", pa.int64())]))


def top_dot_pairs(ds, *, k: int = 20, id_col: str = "vec_id",
                  emb_col: str = "embedding", num_cpus: float = 1.0,
                  target_block_rows: int = 16384,
                  max_blocks: int = 256) -> pa.Table:
    """Global top-k most-similar embedding pairs by EXACT inner product
    (id_a < id_b, micro-int64 units): the cosine_dup_pairs block-pair
    fan-out, but each task keeps only ITS top-k and the tiny
    (B(B+1)/2) x k partial set merges at the driver — the full pair
    matrix never materializes anywhere.

    Exactness: elements quantize to micro-int64; the float64 BLAS
    matmul is bit-exact here because every product (<= 1e12) and every
    64-term partial sum (<= 6.4e13) sits far below 2^53, so the result
    casts back to the true integer dot regardless of summation order —
    which is what makes a HUGEINT-free SQL mirror hash-match. Ordering
    (dot DESC, id_a, id_b) is total, so boundary ties are
    deterministic. Same max_blocks guard as the exact-threshold path.
    """
    import ray
    import ray.data as rd

    out_schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                            ("dot", pa.int64())])

    from ..ops.reduce import typed_map

    blocks = typed_map(ds, lambda b: b.select([id_col, emb_col]),
                       batch_size=target_block_rows).to_arrow_refs()
    if len(blocks) > max_blocks:
        raise ValueError(
            f"top_dot_pairs is the exact O(N^2) path: {len(blocks)} "
            f"blocks exceed max_blocks={max_blocks}; use the LSH family "
            "at this corpus size or raise max_blocks deliberately.")

    def micro_block(tbl):
        if isinstance(tbl, pa.RecordBatch):
            tbl = pa.Table.from_batches([tbl])
        # an empty input Dataset yields schema-less blocks (Ray drops
        # the mapped schema on empty inputs) — treat as an empty block
        if tbl.num_rows == 0 or id_col not in tbl.schema.names:
            return np.empty(0, np.int64), np.empty((0, 0))
        m = _embedding_matrix(tbl, emb_col, dtype=np.float64)
        return (tbl[id_col].to_numpy(zero_copy_only=False)
                .astype(np.int64),
                np.floor(m * 1_000_000 + 0.5))

    def topk_of(a, b, dot):
        order = np.lexsort((b, a, -dot))[:k]
        return pa.table({"id_a": a[order], "id_b": b[order],
                         "dot": dot[order]})

    @ray.remote(num_cpus=num_cpus)
    def pair_task(ta, tb, same: bool) -> pa.Table:
        ids_a, ma = micro_block(ta)
        ids_b, mb = micro_block(tb)
        if ids_a.size == 0 or ids_b.size == 0:
            return out_schema.empty_table()
        dots = (ma @ mb.T).astype(np.int64)
        if same:
            keep = ids_a[:, None] < ids_b[None, :]
        else:
            keep = ids_a[:, None] != ids_b[None, :]
        r, c = np.nonzero(keep)
        a, b = ids_a[r], ids_b[c]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        return topk_of(lo, hi, dots[r, c])

    refs = [pair_task.remote(blocks[i], blocks[j], i == j)
            for i in range(len(blocks)) for j in range(i, len(blocks))]
    from ..ops.reduce import driver_merge

    def merge(t: pa.Table) -> pa.Table:
        return topk_of(t["id_a"].to_numpy(zero_copy_only=False),
                       t["id_b"].to_numpy(zero_copy_only=False),
                       t["dot"].to_numpy(zero_copy_only=False))

    return driver_merge(rd.from_arrow_refs(refs), merge,
                        schema=out_schema)

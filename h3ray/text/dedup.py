"""Deduplication primitives: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Scale shapes (100 TB thinking):
- exact: fingerprint in map_batches (vectorized hash) -> groupby(fingerprint)
  -> keep min key per group. The shuffle moves (fingerprint, key) pairs only.
- MinHash/LSH: per-batch shingle+minhash (numpy) -> explode to
  (band, band_hash, key) rows -> groupby((band, band_hash)) -> candidate
  pairs -> Jaccard verify -> min-label propagation for clusters.
- SimHash: 64-bit weighted-token hash; near-dups = identical bands of the
  simhash (Hamming-ball blocking).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..io.pages import _mix64, url_hash64
from ..ops.reduce import exchange, typed_map, typed_rows

N_PERM = 64  # minhash permutations
N_BANDS = 16  # LSH bands -> 4 rows per band
ROWS_PER_BAND = N_PERM // N_BANDS

_SALTS = _mix64(np.arange(1, N_PERM + 1, dtype=np.uint64) *
                np.uint64(0x9E3779B97F4A7C15))
_PERM_A = _SALTS | np.uint64(1)  # odd -> bijective multiplier mod 2^64
_PERM_B = _mix64(_SALTS + np.uint64(0xD1B54A32D192ED03))


def _shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Rolling k-gram 64-bit hashes of a string (character shingles)."""
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    if b.shape[0] < k:
        b = np.pad(b, (0, k - b.shape[0]), constant_values=32)
    win = np.lib.stride_tricks.sliding_window_view(b, k).astype(np.uint64)
    pw = np.uint64(1099511628211) ** np.arange(k, dtype=np.uint64)
    return _mix64(win @ pw)


def _string_buffer(arr: pa.Array):
    """(bytes, starts, ends) views of a string/binary array's payload."""
    off_dtype = np.int64 if isinstance(
        arr, (pa.LargeStringArray, pa.LargeBinaryArray)) else np.int32
    buffers = arr.buffers()
    offsets = np.frombuffer(buffers[1], dtype=off_dtype,
                            count=len(arr) + 1 + arr.offset)[arr.offset:]
    data = np.frombuffer(buffers[2], dtype=np.uint8)
    return data, offsets[:-1].astype(np.int64), offsets[1:].astype(np.int64)


def _shingle_hashes_batch(texts: pa.Array, k: int = 5):
    """(flat_hashes, doc_lengths): rolling k-gram hashes of EVERY doc in one
    pass over the Arrow string buffer — bit-identical to per-doc
    `_shingle_hashes`, no per-doc Python loop.

    The k-1 windows that straddle a doc boundary are computed then dropped
    by a mask; docs shorter than k fall back to the (padded) per-doc path —
    they are rare in web text and need byte padding.
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    data, starts, ends = _string_buffer(texts)
    n = len(texts)
    lengths = ends - starts
    if n == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    seg = data[starts[0]:ends[-1]].astype(np.uint64)
    total = seg.shape[0]
    # Rolling polynomial over the whole buffer: k shifted adds.
    pw = np.uint64(1099511628211) ** np.arange(k, dtype=np.uint64)
    n_win = max(total - k + 1, 0)
    h = np.zeros(n_win, dtype=np.uint64)
    for t in range(k):
        h += seg[t:t + n_win] * pw[t]
    h = _mix64(h)
    # Window j belongs to the doc covering buffer position j..j+k-1; keep
    # only windows fully inside one doc.
    rel_start = starts - starts[0]
    rel_end = ends - starts[0]
    n_shingles = np.maximum(lengths - k + 1, 0)
    valid_starts = rel_start[n_shingles > 0]
    take = np.repeat(valid_starts, n_shingles[n_shingles > 0]) + (
        np.arange(int(n_shingles.sum()), dtype=np.int64)
        - np.repeat(np.cumsum(n_shingles[n_shingles > 0])
                    - n_shingles[n_shingles > 0],
                    n_shingles[n_shingles > 0]))
    flat = h[take]
    out_lengths = n_shingles.copy()
    short = np.flatnonzero(lengths < k)
    if short.size:
        # Splice each space-padded single-shingle doc back in doc order
        # (cumsum[s] == shingles strictly before doc s, since its own is 0).
        pad_h = np.empty(short.size, dtype=np.uint64)
        for i, s in enumerate(short):
            b = data[starts[s]:ends[s]]
            padded = np.pad(b, (0, k - b.shape[0]),
                            constant_values=32).astype(np.uint64)
            pad_h[i] = _mix64(np.array([padded @ pw]))[0]
        flat = np.insert(flat, np.cumsum(n_shingles)[short], pad_h)
        out_lengths[short] = 1
    return flat, out_lengths


def minhash_signature_batch(texts, k: int = 5) -> np.ndarray:
    """(n, N_PERM) uint64 minhash signatures.

    Fully vectorized: a pyarrow string array shingles in ONE pass over the
    Arrow payload buffer (`_shingle_hashes_batch`); each salt permutation
    mixes the flat hash array in one pass and np.minimum.reduceat takes the
    per-doc minima. A list[str] input falls back to per-doc shingling
    (bit-identical output either way).
    """
    if isinstance(texts, (pa.Array, pa.ChunkedArray)):
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        n = len(texts)
        flat, lengths = _shingle_hashes_batch(texts, k)
    else:
        n = len(texts)
        shingles = [_shingle_hashes(t, k) for t in texts]
        lengths = np.array([s.shape[0] for s in shingles], dtype=np.int64)
        flat = np.concatenate(shingles) if n else np.empty(0, np.uint64)
    out = np.empty((n, N_PERM), dtype=np.uint64)
    if n == 0:
        return out
    bounds = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    for p in range(N_PERM):
        # Affine permutation of the already-mixed shingle hashes
        # (odd multiplier => bijective mod 2^64): 2 ops per element vs a
        # full avalanche, the standard minwise-hashing construction.
        mixed = flat * _PERM_A[p] + _PERM_B[p]
        out[:, p] = np.minimum.reduceat(mixed, bounds)
    return out


def minhash_bands_stage(key_col: str, text_col: str = "text", k: int = 5,
                        keep_text: bool = False):
    """Explode each doc into N_BANDS (band, band_hash, key) rows."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        sig = minhash_signature_batch(texts, k)
        bands = sig.reshape(len(texts), N_BANDS, ROWS_PER_BAND)
        # Hash each band's rows into one value.
        band_hash = _mix64(
            bands[..., 0] * np.uint64(3) ^ _mix64(bands[..., 1])
            ^ (_mix64(bands[..., 2]) >> np.uint64(1))
            ^ (_mix64(bands[..., 3]) << np.uint64(1)))
        n = len(texts)
        rows = np.repeat(np.arange(n), N_BANDS)
        # int64 view: uint64 > 2^63-1 degrades Ray shuffles to pickle.
        arrays = [pa.array(keys[rows]),
                  pa.array(np.tile(np.arange(N_BANDS, dtype=np.int32), n)),
                  pa.array(band_hash.reshape(-1).view(np.int64))]
        names = [key_col, "band", "band_hash"]
        if keep_text:
            col = batch[text_col]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            arrays.append(col.take(pa.array(rows)))
            names.append("text")
        return pa.Table.from_arrays(arrays, names=names)

    return fn


def simhash_batch(texts) -> np.ndarray:
    """64-bit SimHash over whitespace tokens.

    Vectorized across the batch: Arrow utf8_split_whitespace tokenizes the
    whole column (empty boundary tokens filtered), the flat token array
    hashes in one pass, per-bit votes accumulate with np.add.reduceat over
    doc boundaries. Accepts a pyarrow string array or list[str].
    """
    import pyarrow.compute as pc

    if isinstance(texts, list):
        texts = pa.array(texts, type=pa.string())
    elif isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    out = np.zeros(n, dtype=np.uint64)
    if n == 0:
        return out
    toks = pc.utf8_split_whitespace(texts)
    raw_lens = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = toks.flatten()
    tok_len = pc.binary_length(flat).to_numpy(zero_copy_only=False)
    keep = tok_len > 0
    # Arrow emits empty tokens at leading/trailing whitespace (Python's
    # str.split drops them); every doc has >= 1 raw token, so reduceat over
    # the raw bounds is segment-safe.
    raw_bounds = np.cumsum(raw_lens) - raw_lens
    lengths = np.add.reduceat(keep.astype(np.int64), raw_bounds) \
        if keep.shape[0] else np.zeros(n, np.int64)
    if not keep.any():
        return out
    hs = url_hash64(flat.filter(pa.array(keep)))
    nonempty = lengths > 0
    bounds = (np.cumsum(lengths) - lengths)[nonempty]
    ne_lengths = lengths[nonempty]
    sh = np.zeros(int(nonempty.sum()), dtype=np.uint64)
    # Byte-sliced bit counting: 8 passes of (tokens, 8) uint8 instead of one
    # (tokens, 64) blow-up; bit b set iff ones > half the tokens.
    for byte_i in range(8):
        byte = ((hs >> np.uint64(8 * byte_i)) & np.uint64(0xFF)).astype(
            np.uint8)
        bits8 = _BYTE_BITS[byte]  # (tokens, 8) uint8
        ones = np.add.reduceat(bits8.astype(np.int64), bounds, axis=0)
        bitset = (2 * ones > ne_lengths[:, None]).astype(np.uint64)
        shifts8 = np.arange(8 * byte_i, 8 * byte_i + 8, dtype=np.uint64)
        sh |= np.bitwise_or.reduce(bitset << shifts8[None, :], axis=1)
    out[nonempty] = sh
    return out


_BYTE_BITS = np.array([[(v >> b) & 1 for b in range(8)]
                       for v in range(256)], dtype=np.uint8)


def simhash_stage(text_col: str = "text", out_col: str = "simhash"):
    def fn(batch: pa.Table) -> pa.Table:
        sh = simhash_batch(batch[text_col])
        # int64 view: uint64 > 2^63-1 degrades Ray shuffles to pickle.
        return batch.append_column(out_col, pa.array(sh.view(np.int64)))

    return fn


def winnow_stats_stage(key_col: str = "doc_id", text_col: str = "text",
                       k: int = 5, w: int = 4):
    """Winnowing (MOSS) fingerprint statistics per document: the number
    of k-gram positions, sliding windows of w consecutive gram hashes,
    and DISTINCT window minima — the position-robust fingerprint
    density a plagiarism/overlap detector selects. One Arrow-buffer
    shingling pass (`_shingle_hashes_batch`), one strided window-min
    over the flat hash stream with doc-boundary masking, one lexsort
    run-detection for per-doc distincts — no per-doc Python except the
    rare shorter-than-w fallback (its single window is the whole-doc
    min, mirroring the SQL list_min). Zero shuffle, zero state."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        flat, lens = _shingle_hashes_batch(texts, k)
        nd = lens.shape[0]
        if nd == 0:
            return pa.table({
                key_col: pa.array([], batch.schema.field(key_col).type),
                "n_grams": pa.array([], pa.int64()),
                "n_windows": pa.array([], pa.int64()),
                "n_fingerprints": pa.array([], pa.int64())})
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        long = lens >= w
        n_win = np.where(long, lens - w + 1, 1).astype(np.int64)
        total = int(n_win.sum())
        mins = np.empty(total, np.uint64)
        out_start = np.concatenate([[0], np.cumsum(n_win)[:-1]])
        if flat.shape[0] >= w:
            allm = np.lib.stride_tricks.sliding_window_view(flat, w) \
                .min(axis=1)
        else:
            allm = np.empty(0, np.uint64)
        li = np.flatnonzero(long)
        if li.size:
            cnt = n_win[li]
            intra = np.arange(int(cnt.sum()), dtype=np.int64) \
                - np.repeat(np.cumsum(cnt) - cnt, cnt)
            mins[np.repeat(out_start[li], cnt) + intra] = \
                allm[np.repeat(starts[li], cnt) + intra]
        for s in np.flatnonzero(~long):
            mins[out_start[s]] = flat[starts[s]:starts[s]
                                      + lens[s]].min()
        seg = np.repeat(np.arange(nd, dtype=np.int64), n_win)
        order = np.lexsort((mins, seg))
        sv, sm = seg[order], mins[order]
        new = np.r_[True, (sv[1:] != sv[:-1]) | (sm[1:] != sm[:-1])]
        distinct = np.bincount(sv[new], minlength=nd).astype(np.int64)
        return pa.table({
            key_col: batch[key_col],
            "n_grams": pa.array(lens.astype(np.int64)),
            "n_windows": pa.array(n_win),
            "n_fingerprints": pa.array(distinct)})

    return fn


# ---------------------------------------------------------------------------
# Dataset-level pipelines
# ---------------------------------------------------------------------------

def exact_dedup(ds, key_col: str, text_col: str = "text"):
    """Keep the min-key row per distinct text (hash-partitioned).

    Emits (key_col,) of survivors. Shuffle moves only (fingerprint, key).
    """
    from .analysis import fingerprint_stage

    from ray.data.aggregate import Min

    def project(batch: pa.Table) -> pa.Table:
        return batch.select([key_col, "fingerprint"])

    fp = ds.map_batches(fingerprint_stage(text_col), batch_format="pyarrow",
                        batch_size=65536) \
        .map_batches(project, batch_format="pyarrow")

    return fp.groupby("fingerprint").aggregate(
        Min(key_col, alias_name=key_col)).select_columns([key_col])


def _collision_runs(sort_keys: tuple[np.ndarray, ...]):
    """Vectorized run detection: lexsort by (band keys..., tiebreak), return
    (order, run_starts, run_ends) for runs of identical *band keys* (all but
    the last sort key) with length >= 2. The last key only orders members
    within a run."""
    order = np.lexsort(sort_keys[::-1])
    n = order.shape[0]
    if n == 0:
        return order, np.empty(0, np.int64), np.empty(0, np.int64)
    same = np.ones(n, dtype=bool)
    same[0] = False
    for k in sort_keys[:-1]:
        ks = k[order]
        same[1:] &= ks[1:] == ks[:-1]
    starts = np.flatnonzero(~same)
    ends = np.append(starts[1:], n)
    keep = (ends - starts) >= 2
    return order, starts[keep], ends[keep]


def minhash_duplicate_pairs(ds, key_col: str, text_col: str = "text"):
    """Candidate near-dup pairs via MinHash-LSH banding.

    Returns a Dataset of DISTINCT (key_a, key_b) star pairs (min key per
    colliding band vs the rest) with key_a < key_b — a pair colliding in
    several bands appears once. Identical band hashes meet in one
    ops.reduce.exchange bucket, so run detection inside it is exact.
    """
    from ..ops.pairs import distinct_pairs

    def pairs(group: pa.Table) -> pa.Table:
        ks = group[key_col].to_numpy(zero_copy_only=False)
        band = group["band"].to_numpy(zero_copy_only=False)
        bh = group["band_hash"].to_numpy(zero_copy_only=False)
        order, starts, ends = _collision_runs((band, bh, ks))
        out_a = []
        out_b = []
        for s, e in zip(starts, ends):
            run = ks[order[s:e]]
            out_a.append(np.full(e - s - 1, run[0]))
            out_b.append(run[1:])
        a = np.concatenate(out_a) if out_a else np.empty(0, ks.dtype)
        b = np.concatenate(out_b) if out_b else np.empty(0, ks.dtype)
        return pa.Table.from_arrays([pa.array(a), pa.array(b)],
                                    names=["key_a", "key_b"])

    cand = exchange(ds, "band_hash", pairs,
                    prep=minhash_bands_stage(key_col, text_col),
                    batch_size=8192)
    return distinct_pairs(cand, "key_a", "key_b")


def simhash_duplicate_pairs(ds, key_col: str, text_col: str = "text",
                            max_hamming: int = 3):
    """Near-dup pairs via SimHash banding + exact Hamming verification.

    64-bit simhash split into 4 x 16-bit bands: any pair within Hamming
    distance <= 3 shares at least one identical band (pigeonhole), so
    banding loses no true pair. Groups shuffle only (band, value, key,
    simhash) rows; verification is in-group popcount.
    """
    def band_stage(batch: pa.Table) -> pa.Table:
        sh = simhash_batch(batch[text_col])
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        n = sh.shape[0]
        rows = np.repeat(np.arange(n), 4)
        band = np.tile(np.arange(4), n)
        value = (sh[rows] >> (band.astype(np.uint64) * np.uint64(16))) \
            & np.uint64(0xFFFF)
        return pa.Table.from_arrays(
            [pa.array(band.astype(np.int8)),
             pa.array(value.astype(np.int32)),
             pa.array(keys[rows]), pa.array(sh[rows].view(np.int64))],
            names=["band", "band_value", key_col, "simhash"])

    def pairs(group: pa.Table) -> pa.Table:
        ks = group[key_col].to_numpy(zero_copy_only=False)
        sh = group["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        band = group["band"].to_numpy(zero_copy_only=False)
        bv = group["band_value"].to_numpy(zero_copy_only=False)
        order, starts, ends = _collision_runs((band, bv, ks))
        out_a = []
        out_b = []
        for s, e in zip(starts, ends):
            idx = order[s:e]
            rk, rs = ks[idx], sh[idx]
            ia, ib = np.triu_indices(rk.shape[0], 1)
            x = rs[ia] ^ rs[ib]
            ham = np.zeros(x.shape[0], dtype=np.int64)
            for shft in range(0, 64, 8):
                ham += POPCOUNT8[(x >> np.uint64(shft)) & np.uint64(0xFF)]
            keep = ham <= max_hamming
            out_a.append(rk[ia[keep]])
            out_b.append(rk[ib[keep]])
        a = np.concatenate(out_a) if out_a else np.empty(0, ks.dtype)
        b = np.concatenate(out_b) if out_b else np.empty(0, ks.dtype)
        return pa.Table.from_arrays([pa.array(a), pa.array(b)],
                                    names=["key_a", "key_b"])

    cand = exchange(ds, "band_value", pairs, prep=band_stage,
                    batch_size=8192)

    # A pair can collide in several bands: exact distributed distinct
    # (unbounded pair sets must not funnel through the driver).
    from ..ops.pairs import distinct_pairs

    return distinct_pairs(cand, "key_a", "key_b")


POPCOUNT8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)


def exact_canonical_mapping(ds, key_col: str, text_col: str = "text"):
    """(key, canonical_id) for EVERY row: canonical = min key among rows
    with identical text. The keep-side complement of exact_dedup — training
    pipelines need the mapping (to redirect references / count dup mass),
    not just the survivor list. Shape: fingerprint map -> one hash
    exchange on the fingerprint, where each bucket's lexsort by
    (fingerprint, key) puts every text's min key first. A typed empty
    block (the key typed as in `ds`) leads the result."""
    from .analysis import fingerprint_stage

    def canonical(group: pa.Table) -> pa.Table:
        fp = group["fingerprint"].to_numpy(zero_copy_only=False)
        key = group[key_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((key, fp))
        fp, key = fp[order], key[order]
        first = np.r_[True, fp[1:] != fp[:-1]]
        start = np.maximum.accumulate(np.where(first, np.arange(fp.size), 0))
        return pa.table({key_col: key, "canonical_id": key[start]})

    fp = fingerprint_stage(text_col)
    return typed_rows(exchange(
        ds, "fingerprint", canonical, batch_size=65536,
        prep=lambda b: fp(b).select([key_col, "fingerprint"])))


def duplicate_clusters(keys_ds, pairs_ds, key_col: str,
                       pair_a: str = "key_a", pair_b: str = "key_b",
                       max_iters: int = 30, stats: dict | None = None):
    """Connected components of the dup-pair graph: (key, cluster_id) with
    cluster_id = min key in the component; keys without a pair cluster to
    themselves.

    Distributed min-label propagation with POINTER DOUBLING (the
    Shiloach-Vishkin shortcut, same round bound as large-star/small-star):
    each round the static graph edges are augmented with one pointer edge
    (src=label(v), dst=v) per key, so the min-of-neighbor-labels message
    join also delivers label(label(v)) — label depth halves per round,
    O(log diameter) rounds instead of O(diameter) on chain components, at
    ZERO extra joins (the pointer edges ride the existing message join;
    every label value is itself a key, so its label row always exists).
    Labels materialize each round (iterative algorithms must break
    lineage).

    `stats`, when given, records {"rounds": n} for observability/tests.
    """
    import pyarrow.compute as pc

    from ..ops.join import hash_join

    def project_keys(batch: pa.Table) -> pa.Table:
        k = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(k), pa.array(k.copy())], names=[key_col, "cluster_id"])

    # batch_size=65536 on the loop's map stages coalesces tiny blocks
    # before each exchange — per-round shuffle wall is dominated by input
    # BLOCK count, not rows, and a 64x tiny-block keys read doubles it.
    # a typed empty lead block keeps the labels' columns over no keys
    labels = typed_rows(typed_map(keys_ds, project_keys,
                                  batch_size=65536)).materialize()

    def both_dirs(batch: pa.Table) -> pa.Table:
        a = batch[pair_a].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[pair_b].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(np.concatenate([a, b])),
             pa.array(np.concatenate([b, a]))],
            names=["_src", "_dst"])

    edges = pairs_ds.map_batches(both_dirs, batch_format="pyarrow",
                                 batch_size=65536).materialize()
    n_edges = edges.count()
    if n_edges == 0:
        if stats is not None:
            stats["rounds"] = 0
        return labels

    def min_label(group: pa.Table) -> pa.Table:
        g = group.group_by("_dst").aggregate([("_label", "min")])
        return pa.table({key_col: g["_dst"], "_min_nbr": g["_label_min"]})

    rounds = 0
    for _ in range(max_iters):
        rounds += 1
        # Neighbor labels: join (static edges + this round's pointer edges)
        # to current labels, then min per destination. The pointer edge
        # (src=label(v), dst=v) delivers label(label(v)) through the same
        # join — the pointer-doubling shortcut. Round 1 skips the pointer
        # edges: labels are the identity, so they are pure self-loops.
        src_labels = typed_map(
            labels, lambda b: b.rename_columns(["_src", "_label"]),
            batch_size=65536)
        if rounds == 1:
            msg_edges = edges
        else:
            ptr_edges = typed_map(
                labels, lambda b: pa.Table.from_arrays(
                    [b["cluster_id"], b[key_col]], names=["_src", "_dst"]),
                batch_size=65536)
            # materialized, the union's schema is known before the join
            msg_edges = edges.union(ptr_edges).materialize()
        msgs = hash_join(msg_edges, src_labels, "_src", "_src")
        merged = hash_join(labels, exchange(msgs, "_dst", min_label),
                           key_col, key_col, how="left")

        def lower(batch: pa.Table) -> pa.Table:
            cur = batch["cluster_id"]
            # Coalesce in Arrow: keys above 2^53 must not round-trip
            # through float64 (silent precision loss on the NaN path).
            nbr = pc.coalesce(batch["_min_nbr"], cur)
            new = pc.min_element_wise(cur, nbr)
            changed = pc.cast(pc.less(new, cur), pa.int8())
            return pa.Table.from_arrays(
                [batch[key_col], new, changed],
                names=[key_col, "cluster_id", "_changed"])

        stepped = merged.map_batches(lower, batch_format="pyarrow",
                                     batch_size=65536).materialize()
        n_changed = stepped.sum("_changed")
        # Lazy projection over the materialized blocks: lineage is already
        # broken at `stepped`, a second materialize would be a wasted pass.
        labels = typed_map(stepped, lambda b: b.drop_columns(["_changed"]))
        if not n_changed:
            break
    else:
        # Silent truncation would return wrong (non-converged) cluster ids
        # for components whose diameter exceeds max_iters — fail loudly.
        raise RuntimeError(
            f"duplicate_clusters did not converge in {max_iters} rounds "
            f"(a component's diameter exceeds max_iters; raise it)")
    if stats is not None:
        stats["rounds"] = rounds
    return labels


def minhash_candidate_pairs(ds, key_col: str, text_col: str = "text",
                            k: int = 5, distinct: bool = True):
    """All distinct (key_a < key_b) pairs colliding in >= 1 MinHash band.

    Shuffle moves (key, band, band_hash) rows ONLY — no text. Duplicate
    collisions across bands are removed by a bucketed distinct —
    `distinct=False` skips that all-to-all for consumers that dedupe
    downstream anyway (pairverify groups co-locate every copy of a pair)."""
    from ..ops.pairs import distinct_pairs

    def pairs(group: pa.Table) -> pa.Table:
        ks = group[key_col].to_numpy(zero_copy_only=False)
        band = group["band"].to_numpy(zero_copy_only=False)
        bh = group["band_hash"].to_numpy(zero_copy_only=False)
        order, starts, ends = _collision_runs((band, bh, ks))
        out_a, out_b = [], []
        for s, e in zip(starts, ends):
            idx = order[s:e]
            ia, ib = np.triu_indices(idx.shape[0], 1)
            a, b = ks[idx[ia]], ks[idx[ib]]
            keep = a != b
            out_a.append(np.minimum(a[keep], b[keep]))
            out_b.append(np.maximum(a[keep], b[keep]))
        a = np.concatenate(out_a) if out_a else np.empty(0, ks.dtype)
        b = np.concatenate(out_b) if out_b else np.empty(0, ks.dtype)
        return pa.Table.from_arrays([pa.array(a), pa.array(b)],
                                    names=["key_a", "key_b"])

    cand = exchange(ds, "band_hash", pairs,
                    prep=minhash_bands_stage(key_col, text_col, k),
                    batch_size=8192)
    if not distinct:
        return cand
    return distinct_pairs(cand, "key_a", "key_b")


def _ragged_gather(values: np.ndarray, starts: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """Concatenate values[starts[i] : starts[i]+lengths[i]] vectorized."""
    from ..ops.join import _ragged_take

    return values[_ragged_take(starts, lengths)]


def _unique_shingle_sets(texts: pa.Array, k: int):
    """(values, starts, lens): per-doc UNIQUE shingle-hash sets of a string
    array, computed in one Arrow-buffer pass + one segmented sort — no
    per-doc Python loop. `values[starts[i]:starts[i]+lens[i]]` is doc i's
    set (sorted)."""
    n = len(texts)
    flat_all, lens = _shingle_hashes_batch(texts, k)
    seg = np.repeat(np.arange(n), lens)
    order = np.lexsort((flat_all, seg))
    fs, ss = flat_all[order], seg[order]
    keep = np.ones(fs.shape[0], dtype=bool)
    keep[1:] = (fs[1:] != fs[:-1]) | (ss[1:] != ss[:-1])
    uflat = fs[keep].view(np.int64)
    useg = ss[keep]
    ulens = np.bincount(useg, minlength=n).astype(np.int64)
    return uflat, np.cumsum(ulens) - ulens, ulens


def ngram_jaccard_pairs(ds, key_col: str, text_col: str = "text",
                        threshold: float = 0.5, k: int = 5,
                        verify_block_bytes: int = 4 * 1024 * 1024):
    """Exact-verified near-dup pairs: MinHash-LSH candidates re-checked with
    true character-k-gram Jaccard >= threshold.

    Scale shape — Dataset-native end to end: the candidate stage shuffles
    keys only (no text); the candidate pair set (unbounded on dup-heavy
    corpora) never touches the driver — pairs hash to verification buckets
    and the texts of their endpoint docs are hash-joined to the same
    buckets (`ops.pairverify`), each doc's text shipping once per distinct
    bucket membership. Verification shingles each bucket's docs in one
    Arrow-buffer pass and intersects all pairs with one flat rank-space
    sort — no per-pair Python loop, no broadcast routing table.

    `verify_block_bytes` caps the block size the groupby packs verification
    groups into, because the verify stage is extremely CPU-dense (~hundreds
    of shingle intersections per payload KB): at the default 128 MiB the
    sort packed ALL groups into 3 blocks and the whole verification ran
    3-wide regardless of cluster size (measured 12.2 s -> 2.7 s at sf0.1 /
    32 cpus with 4 MiB and 64 verification buckets). The override is
    captured at dataset BUILD time and scoped to this sub-pipeline. At corpus scales where
    routed bytes / verify_block_bytes would exceed ~100k blocks, raise it —
    the goal is blocks ~ a few x cluster cores.
    """
    import ray.data as rd

    out_schema = pa.schema([("key_a", pa.int64()), ("key_b", pa.int64()),
                            ("jaccard", pa.float64())])
    # The block-size cap is captured at dataset build time (Ray snapshots
    # DataContext into the plan), so the override is scoped to the datasets
    # constructed in this try block and restored before returning.
    ctx = rd.DataContext.get_current()
    prev_block = ctx.target_max_block_size
    ctx.target_max_block_size = verify_block_bytes
    try:
        return _ngram_jaccard_pairs_build(ds, key_col, text_col, threshold,
                                          k, out_schema)
    finally:
        ctx.target_max_block_size = prev_block


def _ngram_jaccard_pairs_build(ds, key_col, text_col, threshold, k,
                               out_schema):
    import ray.data as rd

    from ..ops.pairverify import route_pairs_and_payload, split_pair_group

    # distinct=False: copies of a multi-band collision all hash to the same
    # verification bucket, so split_pair_group dedupes them in-group — one
    # fewer all-to-all than a pre-shuffle global distinct.
    cand = minhash_candidate_pairs(ds, key_col, text_col, k, distinct=False)
    routed, n_pairs = route_pairs_and_payload(ds, cand, key_col, [text_col])
    if n_pairs == 0:
        return rd.from_arrow(out_schema.empty_table())

    def verify(group: pa.Table) -> pa.Table:
        gk, payloads, a_ids, b_ids, ia, ib, _ = split_pair_group(
            group, key_col, [text_col])
        if a_ids.size == 0:
            return out_schema.empty_table()
        values, starts, lens = _unique_shingle_sets(payloads[text_col], k)
        # Exact size pruning: J(A,B) >= t forces |A∩B| <= min sizes and
        # union >= max sizes, so min(|A|,|B|) >= t * max(|A|,|B|) is a
        # NECESSARY condition — pairs failing it cannot pass the threshold
        # and skip the intersection entirely.
        ok = np.minimum(lens[ia], lens[ib]) \
            >= threshold * np.maximum(lens[ia], lens[ib])
        a_ids, b_ids, ia, ib = a_ids[ok], b_ids[ok], ia[ok], ib[ok]
        if a_ids.size == 0:
            return out_schema.empty_table()
        # Vectorized multi-pair intersection in RANK space: map shingle
        # hashes to dense group-local ranks, pack (pair_tag, rank) into one
        # uint64, and count duplicate composites with a single flat
        # np.sort — measured ~2.5x faster than the previous 2-key
        # np.lexsort + double take on the same inputs (the sort was the
        # verify stage's dominant cost).
        la, lb = lens[ia], lens[ib]
        uniq, ranks = np.unique(values, return_inverse=True)
        rvals = ranks.astype(np.uint64)
        npairs = a_ids.shape[0]
        nu = np.uint64(max(len(uniq), 1))
        if np.uint64(npairs) < np.iinfo(np.uint64).max // nu:
            tags = np.concatenate([np.repeat(np.arange(npairs,
                                                       dtype=np.uint64), la),
                                   np.repeat(np.arange(npairs,
                                                       dtype=np.uint64), lb)])
            comp = tags * nu + np.concatenate(
                [_ragged_gather(rvals, starts[ia], la),
                 _ragged_gather(rvals, starts[ib], lb)])
            comp.sort()
            eq = comp[1:] == comp[:-1]
            inter = np.bincount((comp[1:][eq] // nu).astype(np.int64),
                                minlength=npairs)
        else:  # composite would overflow (never at sane bucket sizing)
            vals = np.concatenate([_ragged_gather(values, starts[ia], la),
                                   _ragged_gather(values, starts[ib], lb)])
            tags = np.concatenate([np.repeat(np.arange(npairs), la),
                                   np.repeat(np.arange(npairs), lb)])
            so = np.lexsort((vals, tags))
            tv, vv = tags[so], vals[so]
            eq = (tv[1:] == tv[:-1]) & (vv[1:] == vv[:-1])
            inter = np.bincount(tv[1:][eq], minlength=npairs)
        union = la + lb - inter
        jacc = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
        keep = jacc >= threshold
        return pa.Table.from_arrays(
            [pa.array(a_ids[keep]), pa.array(b_ids[keep]),
             pa.array(jacc[keep].astype(np.float64))],
            schema=out_schema)

    return routed.groupby("_vbucket").map_groups(verify,
                                                 batch_format="pyarrow")


def near_dedup(docs_ds, key_col: str = "doc_id", text_col: str = "text",
               threshold: float = 0.5, k: int = 5):
    """Near-duplicate REMOVAL: keep exactly one canonical document per
    near-dup cluster (the minimum key of its connected component); unique
    documents pass through untouched. Output schema == input schema.

    This is the end-to-end filter an LLM training-data pipeline actually
    runs, composed from the verified pieces: `ngram_jaccard_pairs`
    (exact-verified candidates, keys-only shuffles) -> `duplicate_clusters`
    (pointer-doubling min-label propagation) -> survivor filter
    (key == cluster_id, an Arrow predicate over the O(keys) label set) ->
    `semi_join` back against the full rows. Document payloads traverse the
    final exchange exactly once; only keys ride the CC rounds.
    """
    import pyarrow.compute as pc

    from ..ops.join import semi_join

    pairs = ngram_jaccard_pairs(
        typed_map(docs_ds, lambda b: b.select([key_col, text_col])),
        key_col=key_col, text_col=text_col, threshold=threshold, k=k)
    clusters = duplicate_clusters(
        typed_map(docs_ds, lambda b: b.select([key_col])), pairs,
        key_col=key_col)

    def survivors(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch[key_col], batch["cluster_id"])
        return batch.filter(keep).select([key_col])

    canon = clusters.map_batches(survivors, batch_format="pyarrow")
    return semi_join(docs_ds, canon, key_col, key_col)


def contamination_flags(docs_ds, bench_ds, key_col: str = "doc_id",
                        text_col: str = "text", k: int = 5):
    """Benchmark decontamination: per-document flag = 1 iff the document
    shares at least one character-k-gram with ANY benchmark document.

    The benchmark side is small by construction (an eval suite is MBs, not
    TBs), so its k-gram hash set is built once on the driver and broadcast
    via ray.put — the documented small-side pattern; the corpus then
    streams through a zero-shuffle vectorized membership probe (one
    Arrow-buffer shingling pass + np.isin against the sorted blocklist +
    segmented any via reduceat). Output: (key_col, contaminated int64).
    """
    import ray

    chunks = []
    for b in bench_ds.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            flat, _ = _shingle_hashes_batch(b[text_col], k)
            chunks.append(np.unique(flat))
    blocklist = (np.unique(np.concatenate(chunks)) if chunks
                 else np.empty(0, np.uint64))
    ref = ray.put(blocklist)

    def probe(batch: pa.Table) -> pa.Table:
        out_schema = pa.schema([batch.schema.field(key_col),
                                pa.field("contaminated", pa.int64())])
        if batch.num_rows == 0:
            return out_schema.empty_table()
        bl = ray.get(ref)
        flat, lens = _shingle_hashes_batch(batch[text_col], k)
        hit = np.isin(flat, bl)
        starts = np.cumsum(lens) - lens  # lens >= 1 always (padded docs)
        contaminated = np.add.reduceat(hit, starts) > 0
        return pa.Table.from_arrays(
            [batch[key_col], pa.array(contaminated.astype(np.int64))],
            schema=out_schema)

    return docs_ds.map_batches(probe, batch_format="pyarrow")


def _shingle_exchange(ds, key_col: str, text_col: str, k: int, fn):
    """The first exchange of the shingle statistics: each document's
    DISTINCT k-gram hashes as (_g, key) int64 rows, every copy of one
    hash in one call of `fn`. Shingles per NATURAL read block (a
    32K-row coalesce funnels the whole table into one task at small SF
    and serializes the dominant stage; block-granular tasks keep every
    core shingling)."""
    pair_schema = pa.schema([("_g", pa.int64()), (key_col, pa.int64())])

    def pairs(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pair_schema.empty_table()
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        values, _starts, lens = _unique_shingle_sets(batch[text_col], k)
        return pa.Table.from_arrays(
            [pa.array(values), pa.array(np.repeat(keys, lens))],
            schema=pair_schema)

    return exchange(ds.select_columns([key_col, text_col]), "_g", fn,
                    prep=pairs)


def dup_ngram_stats(ds, key_col: str = "doc_id", text_col: str = "text",
                    k: int = 5):
    """Cross-document duplicated-n-gram statistics — the CCNet-style
    line/paragraph-dedup shape (Wenzek et al. 2020), expressed over
    character k-grams because the corpus here has no line structure:
    per document, how many of its DISTINCT k-grams also occur in at least
    one OTHER document.

    Scale shape: the one wide exchange moves (shingle-hash, key) int64
    pairs only — never text. Shingles are deduped per doc inside
    map_batches (one Arrow-buffer pass + one segmented sort,
    `_unique_shingle_sets`); the dup decision is a run-length check inside
    each exchange bucket (identical hashes co-locate, so a run of
    >= 2 rows == >= 2 distinct docs — within a doc each shingle appears
    once); each reducer pre-rolls its (key, n, n_dup) partials so the
    final groupby moves three ints per (doc, bucket). Output:
    (key_col, n_shingles, n_dup), all int64.
    """
    out_schema = pa.schema([(key_col, pa.int64()),
                            ("n_shingles", pa.int64()),
                            ("n_dup", pa.int64())])

    def mark(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n == 0:
            return out_schema.empty_table()
        g = group["_g"].to_numpy(zero_copy_only=False)
        keys = group[key_col].to_numpy(zero_copy_only=False)
        order = np.argsort(g, kind="stable")
        gs = g[order]
        same = np.zeros(n, dtype=bool)
        same[1:] = gs[1:] == gs[:-1]
        is_dup = same.copy()
        is_dup[:-1] |= same[1:]
        uniq, inv = np.unique(keys[order], return_inverse=True)
        tot = np.bincount(inv, minlength=uniq.shape[0])
        dup = np.bincount(inv, weights=is_dup.astype(np.float64),
                          minlength=uniq.shape[0])
        return pa.Table.from_arrays(
            [pa.array(uniq), pa.array(tot.astype(np.int64)),
             pa.array(np.floor(dup + 0.5).astype(np.int64))],
            schema=out_schema)

    def rollup(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return out_schema.empty_table()
        keys = group[key_col].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(keys, return_inverse=True)
        tot = np.zeros(uniq.shape[0], dtype=np.int64)
        dup = np.zeros(uniq.shape[0], dtype=np.int64)
        np.add.at(tot, inv, group["n_shingles"].to_numpy(
            zero_copy_only=False))
        np.add.at(dup, inv, group["n_dup"].to_numpy(zero_copy_only=False))
        return pa.Table.from_arrays(
            [pa.array(uniq), pa.array(tot), pa.array(dup)],
            schema=out_schema)

    # Final per-doc rollup rides a second hash exchange (the native
    # int-key Aggregate measured 13 s on 160k partial rows — the
    # map_groups-per-tiny-group tax CLAUDE.md bans; bucketed np.add.at is
    # ~100x cheaper and unbounded-key safe).
    return exchange(_shingle_exchange(ds, key_col, text_col, k, mark),
                    key_col, rollup)


def shingle_novelty(ds, key_col: str = "doc_id", text_col: str = "text",
                    k: int = 5):
    """Corpus novelty curve: per document, how many of its DISTINCT
    character k-grams appear here FIRST (global MIN key over every
    occurrence — the first-crawl attribution), and the novelty ratio
    n_new / n_shingles. The decay of this ratio in key order is the
    classic diminishing-returns signal for crawl scheduling.

    Same scale shape as `dup_ngram_stats`: the one wide exchange moves
    (shingle-hash, key) int64 pairs only; identical hashes co-locate in
    hash buckets, so each bucket computes exact global per-shingle MIN
    keys with one reduceat; per-doc (n_shingles, n_new) partials roll up
    in a second bucketed exchange. Output:
    (key_col, n_shingles, n_new, novelty), ratio = ONE IEEE division of
    exact int64 counts.
    """
    mid_schema = pa.schema([(key_col, pa.int64()),
                            ("n_shingles", pa.int64()),
                            ("n_new", pa.int64())])
    out_schema = pa.schema([(key_col, pa.int64()),
                            ("n_shingles", pa.int64()),
                            ("n_new", pa.int64()),
                            ("novelty", pa.float64())])

    def first_marks(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n == 0:
            return mid_schema.empty_table()
        g = group["_g"].to_numpy(zero_copy_only=False)
        keys = group[key_col].to_numpy(zero_copy_only=False)
        order = np.argsort(g, kind="stable")
        gs, ks = g[order], keys[order]
        runs = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
        minks = np.minimum.reduceat(ks, runs)
        uniq, inv = np.unique(ks, return_inverse=True)
        tot = np.bincount(inv, minlength=uniq.shape[0]).astype(np.int64)
        new = np.zeros(uniq.shape[0], dtype=np.int64)
        nu, ncnt = np.unique(minks, return_counts=True)
        new[np.searchsorted(uniq, nu)] = ncnt
        return pa.Table.from_arrays(
            [pa.array(uniq), pa.array(tot), pa.array(new)],
            schema=mid_schema)

    def rollup(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return out_schema.empty_table()
        keys = group[key_col].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(keys, return_inverse=True)
        tot = np.zeros(uniq.shape[0], dtype=np.int64)
        new = np.zeros(uniq.shape[0], dtype=np.int64)
        np.add.at(tot, inv, group["n_shingles"].to_numpy(
            zero_copy_only=False))
        np.add.at(new, inv, group["n_new"].to_numpy(zero_copy_only=False))
        nov = new.astype(np.float64) / np.maximum(tot, 1).astype(np.float64)
        return pa.Table.from_arrays(
            [pa.array(uniq), pa.array(tot), pa.array(new),
             pa.array(np.where(tot > 0, nov, np.nan))],
            schema=out_schema)

    return exchange(_shingle_exchange(ds, key_col, text_col, k, first_marks),
                    key_col, rollup)

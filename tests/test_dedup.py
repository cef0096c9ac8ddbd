"""Dedup pipelines: exact, minhash, simhash, ngram-jaccard vs brute force."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from h3ray.text import dedup


@pytest.fixture(scope="module")
def corpus():
    """Synthetic docs with planted near-duplicate groups."""
    rng = np.random.default_rng(11)
    words = [f"w{i:03d}" for i in range(300)]
    docs = []
    for i in range(60):
        docs.append(" ".join(rng.choice(words, 40)))
    # Plant near-dups: copies with 1-2 word edits.
    for base in (3, 17, 42):
        toks = docs[base].split()
        toks[5] = "edited"
        docs.append(" ".join(toks))
    # And exact dups.
    docs.append(docs[7])
    ids = np.arange(len(docs))
    return pa.Table.from_arrays(
        [pa.array(ids), pa.array(docs)], names=["doc_id", "text"])


def test_batch_kernels_match_per_doc(corpus):
    """Arrow-buffer batch shingling / tokenizing is bit-identical to the
    per-doc reference paths, including short (<k) and whitespace edge docs."""
    texts = corpus["text"].to_pylist() + ["", "ab", "  x  y ", "a b", "    "]
    arr = pa.array(texts, type=pa.string())
    flat, lens = dedup._shingle_hashes_batch(arr, 5)
    bounds = np.cumsum(lens) - lens
    for i, t in enumerate(texts):
        exp = dedup._shingle_hashes(t, 5)
        got = flat[bounds[i]:bounds[i] + lens[i]]
        assert (got == exp).all(), f"doc {i}"
    # Sliced arrays (non-zero offset) hash identically too.
    flat2, lens2 = dedup._shingle_hashes_batch(arr.slice(3, 10), 5)
    assert (lens2 == lens[3:13]).all()
    assert (flat2 == flat[bounds[3]:bounds[3] + lens[3:13].sum()]).all()

    sig_list = dedup.minhash_signature_batch(texts)
    sig_arr = dedup.minhash_signature_batch(arr)
    assert (sig_list == sig_arr).all()

    sh_arr = dedup.simhash_batch(arr)
    # Reference: per-doc python split + token hashing.
    for i, t in enumerate(texts):
        toks = t.split()
        if not toks:
            assert sh_arr[i] == 0
            continue
        hs = dedup.url_hash64(pa.array(toks, type=pa.string()))
        bitsv = np.zeros(64, dtype=np.int64)
        for h in hs:
            for b in range(64):
                bitsv[b] += (int(h) >> b) & 1
        exp = sum(1 << b for b in range(64)
                  if 2 * bitsv[b] > len(toks))
        assert int(sh_arr[i]) == exp, f"doc {i}"


def test_simhash_pairs_vs_bruteforce(ray_session, corpus):
    ds = rd.from_arrow(corpus)
    out = dedup.simhash_duplicate_pairs(ds, key_col="doc_id",
                                        max_hamming=3).to_pandas()
    got = set(zip(out.key_a, out.key_b))

    sh = dedup.simhash_batch(corpus["text"].to_pylist())
    n = sh.shape[0]
    exp = set()
    for i in range(n):
        for j in range(i + 1, n):
            if bin(int(sh[i]) ^ int(sh[j])).count("1") <= 3:
                exp.add((i, j))
    assert got == exp
    assert (7, 63) in got  # exact dup has Hamming 0
    assert len(exp) >= 2


def test_ngram_jaccard_pairs_verified(ray_session, corpus):
    ds = rd.from_arrow(corpus)
    out = dedup.ngram_jaccard_pairs(ds, key_col="doc_id",
                                    threshold=0.5).to_pandas()
    got = set(zip(out.key_a, out.key_b))
    texts = corpus["text"].to_pylist()
    # All reported pairs truly exceed the threshold (no false positives),
    # by the exact 5-gram Jaccard over UTF-8 bytes (short texts pad with
    # spaces, as the shingle kernel does).
    def grams(t):
        b = t.encode().ljust(5)
        return {b[i:i + 5] for i in range(len(b) - 4)}

    for a, b in got:
        ga, gb = grams(texts[a]), grams(texts[b])
        assert len(ga & gb) >= 0.5 * len(ga | gb)
    # The planted near-identical pairs must appear (LSH recall on
    # 0.95+-similar docs is ~1).
    for base, dup in ((3, 60), (17, 61), (42, 62)):
        assert (base, dup) in got
    assert (7, 63) in got  # exact dup


def test_duplicate_clusters_label_propagation(ray_session):
    """Min-label propagation finds multi-hop components (chain diameter 3
    needs several BSP rounds), leaves singletons alone."""
    keys = pa.Table.from_arrays(
        [pa.array(np.arange(12, dtype=np.int64))], names=["doc_id"])
    pairs = pa.Table.from_arrays(
        [pa.array([1, 2, 3, 10], type=pa.int64()),
         pa.array([2, 3, 4, 11], type=pa.int64())],
        names=["key_a", "key_b"])
    out = dedup.duplicate_clusters(rd.from_arrow(keys),
                                   rd.from_arrow(pairs),
                                   key_col="doc_id").to_pandas()
    got = dict(zip(out.doc_id, out.cluster_id))
    exp = {i: i for i in range(12)}
    exp.update({2: 1, 3: 1, 4: 1, 11: 10})
    assert got == exp


def test_duplicate_clusters_no_pairs(ray_session):
    keys = pa.Table.from_arrays(
        [pa.array(np.arange(5, dtype=np.int64))], names=["doc_id"])
    empty = pa.Table.from_arrays(
        [pa.array([], type=pa.int64()), pa.array([], type=pa.int64())],
        names=["key_a", "key_b"])
    out = dedup.duplicate_clusters(rd.from_arrow(keys),
                                   rd.from_arrow(empty),
                                   key_col="doc_id").to_pandas()
    assert (out.cluster_id == out.doc_id).all() and len(out) == 5


def test_dedup_pipelines_on_empty_input(ray_session):
    """Every dedup pipeline must survive an empty corpus with its schema
    intact (empty partitions are routine at 100-TB scale)."""
    empty = pa.Table.from_arrays(
        [pa.array([], type=pa.int64()), pa.array([], type=pa.string())],
        names=["doc_id", "text"])
    for fn in (lambda d: dedup.exact_dedup(d, key_col="doc_id"),
               lambda d: dedup.minhash_duplicate_pairs(d, key_col="doc_id"),
               lambda d: dedup.simhash_duplicate_pairs(d, key_col="doc_id"),
               lambda d: dedup.ngram_jaccard_pairs(d, key_col="doc_id")):
        out = fn(rd.from_arrow(empty)).to_pandas()
        assert len(out) == 0


def test_exact_dedup_counts(ray_session, corpus):
    ds = rd.from_arrow(corpus)
    out = dedup.exact_dedup(ds, key_col="doc_id").to_pandas()
    texts = corpus["text"].to_pylist()
    assert len(out) == len(set(texts))
    # Survivor of the duplicated text is the min doc_id.
    assert 7 in set(out.doc_id) and 63 not in set(out.doc_id)


def test_duplicate_clusters_chain_pointer_doubling(ray_session):
    """A diameter-16 chain converges in O(log d) rounds via the pointer-
    doubling shortcut (plain min-label propagation needs ~d rounds), and
    still yields the exact component min."""
    n = 17
    keys = pa.Table.from_arrays(
        [pa.array(np.arange(n, dtype=np.int64))], names=["doc_id"])
    # Chain n-1 <-> n-2 <-> ... <-> 0, worst-case label depth.
    pairs = pa.Table.from_arrays(
        [pa.array(np.arange(1, n, dtype=np.int64)),
         pa.array(np.arange(0, n - 1, dtype=np.int64))],
        names=["key_a", "key_b"])
    stats = {}
    out = dedup.duplicate_clusters(rd.from_arrow(keys),
                                   rd.from_arrow(pairs),
                                   key_col="doc_id",
                                   stats=stats).to_pandas()
    assert (out.cluster_id == 0).all() and len(out) == n
    assert stats["rounds"] <= 8, stats  # log2(16)+slack, not ~16


def test_near_dedup_keeps_one_canonical_per_cluster(ray_session, corpus):
    """near_dedup drops exactly the non-canonical members of each planted
    dup group (min doc_id survives), keeps full input schema, and passes
    unique docs through untouched."""
    ds = rd.from_arrow(corpus)
    out = dedup.near_dedup(ds, key_col="doc_id", threshold=0.5).to_pandas()
    survivors = set(out.doc_id)
    n = corpus.num_rows
    # Compute expected survivors from the verified pair graph directly.
    pairs = dedup.ngram_jaccard_pairs(
        rd.from_arrow(corpus), key_col="doc_id", threshold=0.5).to_pandas()
    label = {i: i for i in range(n)}
    changed = True
    while changed:
        changed = False
        for a, b in zip(pairs.key_a, pairs.key_b):
            m = min(label[a], label[b])
            if label[a] != m or label[b] != m:
                label[a] = label[b] = m
                changed = True
    expected = {i for i in range(n) if label[i] == i}
    assert survivors == expected
    # Planted dups (60, 61, 62 copy 3/17/42; 63 copies 7) must be gone.
    assert {60, 61, 62, 63}.isdisjoint(survivors)
    assert {3, 17, 42, 7} <= survivors
    # Schema preserved: full doc rows survive, not just keys.
    assert set(out.columns) == {"doc_id", "text"}
    texts = dict(zip(corpus["doc_id"].to_pylist(),
                     corpus["text"].to_pylist()))
    assert all(texts[i] == t for i, t in zip(out.doc_id, out.text))


def test_contamination_flags_match_per_doc_reference(ray_session, corpus):
    """Flag = 1 iff a doc shares any k-gram hash with the benchmark set;
    benchmark docs flag themselves; planted copies of bench docs flag."""
    docs = rd.from_arrow(corpus)
    bench_tbl = corpus.filter(
        pa.compute.less(corpus["doc_id"], 5))
    out = dedup.contamination_flags(
        docs, rd.from_arrow(bench_tbl), key_col="doc_id").to_pandas()
    texts = corpus["text"].to_pylist()
    block = np.unique(np.concatenate(
        [dedup._shingle_hashes(t, 5) for t in texts[:5]]))
    exp = {i: int(np.isin(dedup._shingle_hashes(t, 5), block).any())
           for i, t in enumerate(texts)}
    got = dict(zip(out.doc_id, out.contaminated))
    assert got == exp
    assert all(got[i] == 1 for i in range(5))  # bench docs self-flag
    assert got[60] == 1  # near-copy of bench doc 3 is contaminated


def test_contamination_flags_empty_benchmark(ray_session, corpus):
    """An empty benchmark set flags nothing (schema-stable)."""
    docs = rd.from_arrow(corpus)
    empty = rd.from_arrow(corpus.schema.empty_table())
    out = dedup.contamination_flags(docs, empty,
                                    key_col="doc_id").to_pandas()
    assert len(out) == corpus.num_rows and (out.contaminated == 0).all()

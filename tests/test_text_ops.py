"""top_terms and centroids_by_label vs direct computation."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from h3ray.pipelines.ann import centroids_by_label
from h3ray.text.analysis import top_terms


def test_top_terms_counts_and_ties(ray_session):
    docs = ["b b a", "A  c\tb", "", "c a", "d"] * 3
    out = top_terms(rd.from_arrow(pa.table({"text": docs})), "text", k=3)
    got = list(zip(out["term"].to_pylist(), out["term_count"].to_pylist()))
    # a: 9, b: 9, c: 6 — a before b on the lexicographic tie-break.
    assert got == [("a", 9), ("b", 9), ("c", 6)]


def test_top_terms_k_larger_than_vocab(ray_session):
    out = top_terms(rd.from_arrow(pa.table({"text": ["x y", "y"]})),
                    "text", k=50)
    assert out.num_rows == 2


def test_centroids_by_label_exact_sums(ray_session):
    rng = np.random.default_rng(2)
    n, d = 500, 8
    emb = rng.normal(0, 1, (n, d)).astype(np.float32)
    lab = rng.integers(0, 3, n).astype(np.int32)
    tbl = pa.table({
        "label": pa.array(lab),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(emb.reshape(-1)), d).cast(pa.list_(pa.float32()))})
    out = centroids_by_label(rd.from_arrow(tbl).repartition(4)).to_pandas()
    assert len(out) == 3 * d
    micro = np.floor(emb.astype(np.float64) * 1_000_000 + 0.5) \
        .astype(np.int64)
    for lb in range(3):
        exp = micro[lab == lb].sum(axis=0)
        sub = out[out.label == lb].sort_values("dim")
        assert (sub["sum_micro"].to_numpy() == exp).all()
        assert (sub["n_vecs"] == (lab == lb).sum()).all()


def test_quality_filter_stage_thresholds(ray_session):
    """Each condition independently gates; integer boundary values are
    inclusive exactly as documented."""
    from h3ray.text.analysis import quality_filter_stage

    ok = "the and of " + "word " * 28  # 3 stopword hits, 31 words
    ok = ok + "x" * (150 - len(ok)) if len(ok) < 150 else ok
    docs = {
        0: ok,                                  # passes all
        1: "the and " + "word " * 4,            # too short / few words
        2: "z " * 150,                          # 300 chars, 150 words, 0 stop
        3: "the and of " + "word " * 200,       # > 600 chars
    }
    tbl = pa.table({"doc_id": list(docs), "text": list(docs.values())})
    out = rd.from_arrow(tbl).map_batches(
        quality_filter_stage(), batch_format="pyarrow").to_pandas()
    assert set(out.doc_id) == {0}
    # Boundary: exactly min_chars with enough words+stopwords passes.
    base = "the an of is to " + "w " * 20
    text = base + "y" * (150 - len(base))
    assert len(text) == 150
    one = rd.from_arrow(pa.table({"doc_id": [9], "text": [text]}))
    kept = one.map_batches(quality_filter_stage(),
                           batch_format="pyarrow").to_pandas()
    assert list(kept.doc_id) == [9]


def test_repetition_stage_matches_string_reference(ray_session):
    """Hashed n-gram counts == raw-string n-gram counts per doc, including
    repeated phrases, whitespace edges, short and empty docs."""
    from h3ray.text.analysis import repetition_stage

    docs = ["a b a b a", "  x  y ", "", "w", "p q p q p q p q",
            "one two three two three two"]
    tbl = pa.table({"doc_id": list(range(len(docs))), "text": docs})
    out = rd.from_arrow(tbl).map_batches(
        repetition_stage(n=2), batch_format="pyarrow") \
        .to_pandas().sort_values("doc_id")
    for i, text in enumerate(docs):
        toks = text.split()
        grams = [(toks[j], toks[j + 1]) for j in range(len(toks) - 1)]
        row = out[out.doc_id == i].iloc[0]
        assert row.ngrams_total == len(grams)
        assert row.ngrams_distinct == len(set(grams))
        assert row.rep_ngrams == len(grams) - len(set(grams))


def test_normalize_stage(ray_session):
    from h3ray.text.analysis import normalize_stage

    tbl = pa.table({"doc_id": [0, 1],
                    "text": ["  Hello\t\tWORLD  x ", "a"]})
    out = rd.from_arrow(tbl).map_batches(
        normalize_stage(), batch_format="pyarrow") \
        .to_pandas().sort_values("doc_id")
    assert list(out.text) == ["hello world x", "a"]


def test_inverted_postings_matches_reference(ray_session, num_buckets):
    """Posting lists == a pure-Python inverted index (distinct terms per
    doc, df band inclusive, doc ids ascending), under repartitioning."""
    num_buckets(3)
    from h3ray.text.analysis import inverted_postings

    docs = ["the cat sat", "the dog", "cat CAT cat", "", "dog the cat",
            "bird", "the the the"]
    tbl = pa.table({"doc_id": list(range(len(docs))), "text": docs})

    ref = {}
    for i, text in enumerate(docs):
        for t in set(text.lower().split()):
            ref.setdefault(t, []).append(i)
    band = {t: ds for t, ds in ref.items() if 2 <= len(ds) <= 4}

    for nparts in (1, 5):
        out = inverted_postings(
            rd.from_arrow(tbl).repartition(nparts),
            min_df=2, max_df=4).to_pandas()
        got = {r.term: (r.df, r.postings) for r in out.itertuples()}
        assert got == {t: (len(ds), ",".join(map(str, sorted(ds))))
                       for t, ds in band.items()}


def test_inverted_postings_empty_band(ray_session):
    from h3ray.text.analysis import inverted_postings

    tbl = pa.table({"doc_id": [0, 1], "text": ["a b", "c d"]})
    out = inverted_postings(rd.from_arrow(tbl), min_df=2, max_df=5)
    assert out.count() == 0
    assert set(out.schema().names) == {"term", "df", "postings"}

"""Text-analysis stages for large-scale training-data pipelines.

All stages are vectorized batch transforms for
`ds.map_batches(..., batch_format="pyarrow")`:

- token counting (whitespace + a BPE-ish word/punct regex)
- quality scoring (length / punctuation / stopword ratios)
- language ID (character n-gram heuristic over stopword hit rates)
- document fingerprinting (64-bit content hash + rolling-hash shingles)
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..io.pages import _mix64, url_hash64

_BPE_RE = re.compile(r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]")

_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "for", "it"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "zu", "mit"},
    "fr": {"le", "la", "les", "et", "de", "un", "une", "est", "pour", "que"},
    "es": {"el", "la", "los", "de", "y", "que", "en", "un", "una", "es"},
}


def token_count_stage(text_col: str = "text", out_col: str = "n_tokens"):
    """Whitespace token count, fully vectorized via Arrow kernels."""

    def fn(batch: pa.Table) -> pa.Table:
        toks = pc.count_substring_regex(batch[text_col], r"\S+")
        return batch.append_column(out_col, pc.cast(toks, pa.int64()))

    return fn


def bpe_token_count_stage(text_col: str = "text", out_col: str = "n_bpe_tokens"):
    """BPE-ish token count: words / number runs / punctuation marks."""

    def fn(batch: pa.Table) -> pa.Table:
        toks = pc.count_substring_regex(
            batch[text_col], r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]")
        return batch.append_column(out_col, pc.cast(toks, pa.int64()))

    return fn


def quality_stage(text_col: str = "text"):
    """Quality heuristics: length, punct ratio, stopword ratio, mean word len.

    Emits float columns `q_len`, `q_punct_ratio`, `q_stop_ratio`,
    `q_mean_word_len` — the standard cheap quality filters for web text.
    """
    stop_all = set().union(*_STOPWORDS.values())
    stop_pat = r"(?i)\b(?:" + "|".join(sorted(stop_all)) + r")\b"

    def fn(batch: pa.Table) -> pa.Table:
        text = batch[text_col]
        n_chars = pc.cast(pc.utf8_length(text), pa.float64())
        n_punct = pc.cast(pc.count_substring_regex(text, r"[^\w\s]"),
                          pa.float64())
        n_words = pc.cast(pc.count_substring_regex(text, r"\S+"), pa.float64())
        n_stop = pc.cast(pc.count_substring_regex(text, stop_pat), pa.float64())
        safe_words = pc.max_element_wise(n_words, pa.scalar(1.0))
        safe_chars = pc.max_element_wise(n_chars, pa.scalar(1.0))
        batch = batch.append_column("q_len", n_chars)
        batch = batch.append_column(
            "q_punct_ratio", pc.divide(n_punct, safe_chars))
        batch = batch.append_column(
            "q_stop_ratio", pc.divide(n_stop, safe_words))
        batch = batch.append_column(
            "q_mean_word_len", pc.divide(n_chars, safe_words))
        return batch

    return fn


def langid_stage(text_col: str = "text", out_col: str = "lang_pred"):
    """Heuristic language ID: argmax of per-language stopword hit rates.

    A deliberately simple, deterministic n-gram/stopword model (no external
    models in this container); real models slot into the same actor-pool
    stage shape.
    """
    pats = {lang: r"(?i)\b(?:" + "|".join(sorted(ws)) + r")\b"
            for lang, ws in _STOPWORDS.items()}

    def fn(batch: pa.Table) -> pa.Table:
        scores = np.stack([
            pc.count_substring_regex(batch[text_col], pat).to_numpy()
            for pat in pats.values()], axis=1)
        langs = np.array(list(pats.keys()))
        best = langs[np.argmax(scores, axis=1)]
        best = np.where(scores.max(axis=1) == 0, "und", best)
        return batch.append_column(out_col, pa.array(best))

    return fn


def fingerprint_stage(text_col: str = "text", out_col: str = "fingerprint"):
    """64-bit content fingerprint of the text column (stable across runs)."""

    def fn(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        # int64 view (same bits): full-range uint64 shuffle keys overflow
        # Ray's sort-shuffle int conversion and silently degrade blocks to
        # pickled Python objects instead of Arrow buffers.
        h = url_hash64(col).view(np.int64)
        return batch.append_column(out_col, pa.array(h))

    return fn


def top_terms(ds, text_col: str = "text", k: int = 100):
    """Global top-k terms by frequency (whitespace tokens, lowercased).

    The corpus-vocabulary shape: an Arrow regex split + per-batch
    `np.unique` combiner collapses each batch to its distinct (term, count)
    rows BEFORE the one vocabulary shuffle (groupby term); the global top-k
    then moves only k rows per block into the driver-merge tree root. Terms
    are the shuffle key (strings, bounded by vocabulary not corpus size);
    ties break lexicographically so the result is fully deterministic.
    Returns a pa.Table (term, term_count) of <= k rows.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from ..ops.reduce import driver_merge
    from ..ops.skew import _desc_sort_key

    def explode(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern_regex(
            pc.utf8_lower(batch[text_col]), r"\s+"))
        toks = toks.filter(pc.not_equal(toks, ""))
        terms, counts = np.unique(
            toks.to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({"term": pa.array(terms, type=pa.string()),
                         "term_count": counts.astype(np.int64)})

    summed = ds.map_batches(explode, batch_format="pyarrow",
                            batch_size=32768) \
        .groupby("term").aggregate(Sum("term_count",
                                       alias_name="term_count"))

    def block_topk(batch: pa.Table) -> pa.Table:
        cnt = batch["term_count"].to_numpy(zero_copy_only=False)
        terms = batch["term"].to_numpy(zero_copy_only=False)
        order = np.lexsort((terms, _desc_sort_key(cnt)))[:k]
        return batch.take(pa.array(order))

    return driver_merge(summed.map_batches(block_topk,
                                           batch_format="pyarrow"),
                        block_topk)


def json_int_field_stage(col: str, field: str, out_col: str):
    """Extract one integer field from a JSON-string column, vectorized.

    Semi-structured payload parsing (crawl metadata, event props) without
    a per-row json.loads: one RE2 `pc.extract_regex` pass per batch pulls
    `"field": <int>` and casts it; rows without the field emit NULL. The
    pattern intentionally matches the flat `{"k": 1}` shape — nested JSON
    needs a real parser and is out of scope for the hot path."""
    pattern = '"' + field + '":\\s*(?P<v>-?\\d+)'

    def fn(batch: pa.Table) -> pa.Table:
        ex = pc.extract_regex(batch[col], pattern=pattern)
        v = pc.cast(pc.struct_field(ex, "v"), pa.int64())
        return batch.append_column(out_col, v)

    return fn


def bigram_topk(ds, text_col: str = "text", k: int = 100):
    """Global top-k token bigrams by frequency (whitespace tokens).

    The tokenizer-training corpus-stats shape: per batch, one Arrow
    trim+regex-split pass yields a token ListArray; consecutive-token
    pairs are gathered positionally from the flat values (no per-doc
    Python), joined with an \\x1f separator (below any \\S character, so
    the concatenated string sorts exactly like the (w1, w2) tuple), and
    collapsed to batch-local (bigram, count) partials BEFORE the one
    vocabulary shuffle. The global top-k then moves only k rows per block
    to the driver root; ties break on (w1, w2) ascending. Returns a
    pa.Table (w1, w2, cnt) of <= k rows."""
    from ray.data.aggregate import Sum

    from ..ops.reduce import driver_merge
    from ..ops.skew import _desc_sort_key

    def explode(batch: pa.Table) -> pa.Table:
        _, big = _doc_bigrams(batch[text_col])
        uniq, counts = np.unique(
            big.to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({"bigram": pa.array(uniq, type=pa.string()),
                         "cnt": counts.astype(np.int64)})

    summed = ds.map_batches(explode, batch_format="pyarrow",
                            batch_size=32768) \
        .groupby("bigram").aggregate(Sum("cnt", alias_name="cnt"))

    def block_topk(batch: pa.Table) -> pa.Table:
        cnt = batch["cnt"].to_numpy(zero_copy_only=False)
        big = batch["bigram"].to_numpy(zero_copy_only=False)
        order = np.lexsort((big, _desc_sort_key(cnt)))[:k]
        return batch.take(pa.array(order))

    top = driver_merge(summed.map_batches(block_topk,
                                          batch_format="pyarrow"),
                       block_topk,
                       schema=pa.schema([("bigram", pa.string()),
                                         ("cnt", pa.int64())]))
    parts = pc.split_pattern(top["bigram"], "\x1f")
    w1 = pc.list_element(parts, 0)
    w2 = pc.list_element(parts, 1)
    return pa.table({"w1": w1, "w2": w2, "cnt": top["cnt"]})


def quality_filter_stage(text_col: str = "text", min_chars: int = 150,
                         max_chars: int = 600, min_words: int = 20,
                         min_stop_hits: int = 3):
    """C4-style composite keep/drop filter — the decision step the quality
    SIGNALS feed. Thresholds compare EXACT integer counts (chars, words,
    stopword hits), never float ratios, so the keep set is bit-portable
    across engines. Keep iff min_chars <= n_chars <= max_chars AND
    n_words >= min_words AND stopword hits >= min_stop_hits. Pure
    per-batch Arrow kernels: no shuffle, no state."""
    stop_all = set().union(*_STOPWORDS.values())
    stop_pat = r"(?i)\b(?:" + "|".join(sorted(stop_all)) + r")\b"

    def fn(batch: pa.Table) -> pa.Table:
        text = batch[text_col]
        n_chars = pc.utf8_length(text)
        n_words = pc.count_substring_regex(text, r"\S+")
        n_stop = pc.count_substring_regex(text, stop_pat)
        keep = pc.and_(
            pc.and_(pc.greater_equal(n_chars, min_chars),
                    pc.less_equal(n_chars, max_chars)),
            pc.and_(pc.greater_equal(n_words, min_words),
                    pc.greater_equal(n_stop, min_stop_hits)))
        return batch.filter(keep)

    return fn


def repetition_stage(text_col: str = "text", n: int = 2):
    """Gopher-style within-document repetition signal: per doc, the total
    and distinct word-n-gram counts and their difference `rep_ngrams`
    (the number of repeated n-gram occurrences — boilerplate-heavy docs
    score high and get filtered).

    One Arrow regex split per batch, then pure numpy over the flattened
    token stream: 64-bit token hashes, an n-fold mixed rolling combine,
    and distinct-per-document via one lexsort + run detection — no
    per-doc Python loop. Token hashing vs the SQL mirror's raw-string
    n-grams agree up to 64-bit collisions (~(grams^2)/2^64, negligible).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gold = np.uint64(0x9E3779B97F4A7C15)

    def fn(batch: pa.Table) -> pa.Table:
        ndocs = batch.num_rows
        lists = pc.split_pattern_regex(batch[text_col], r"\s+")
        flat = pc.list_flatten(lists)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        lens = pc.list_value_length(lists).to_numpy(
            zero_copy_only=False).astype(np.int64)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        seg = np.repeat(np.arange(ndocs, dtype=np.int64), lens)[keep]
        h = url_hash64(flat)[keep]
        m = h.size
        if m >= n:
            valid = seg[: m - n + 1] == seg[n - 1:]
            acc = _mix64(h[: m - n + 1] + gold)
            for j in range(1, n):
                acc = _mix64(acc ^ _mix64(h[j: m - n + 1 + j]
                                          + gold * np.uint64(j + 1)))
            grams, gseg = acc[valid], seg[: m - n + 1][valid]
        else:
            grams = np.empty(0, np.uint64)
            gseg = np.empty(0, np.int64)
        total = np.bincount(gseg, minlength=ndocs)
        order = np.lexsort((grams, gseg))
        gs, gr = gseg[order], grams[order]
        new = np.ones(gs.size, dtype=bool)
        new[1:] = (gs[1:] != gs[:-1]) | (gr[1:] != gr[:-1])
        distinct = np.bincount(gs[new], minlength=ndocs)
        batch = batch.append_column("ngrams_total",
                                    pa.array(total.astype(np.int64)))
        batch = batch.append_column("ngrams_distinct",
                                    pa.array(distinct.astype(np.int64)))
        return batch.append_column(
            "rep_ngrams", pa.array((total - distinct).astype(np.int64)))

    return fn


def redact_stage(text_col: str = "text", pattern: str = r"[0-9]+",
                 replacement: str = "#", out_col: str | None = None):
    """Regex redaction (the PII-scrub seam: digit runs, emails, phones —
    pattern is caller-supplied): one compiled-once Arrow kernel per batch,
    no shuffle, no state. Replaces in place unless out_col is given."""

    def fn(batch: pa.Table) -> pa.Table:
        scrubbed = pc.replace_substring_regex(
            batch[text_col], pattern=pattern, replacement=replacement)
        if out_col is None:
            i = batch.schema.get_field_index(text_col)
            return batch.set_column(i, text_col, scrubbed)
        return batch.append_column(out_col, scrubbed)

    return fn


def normalize_stage(text_col: str = "text", out_col: str | None = None):
    """Text normalization (the pre-tokenization step): lowercase, collapse
    whitespace runs to single spaces, trim. Three Arrow kernels per batch;
    replaces in place unless out_col is given."""

    def fn(batch: pa.Table) -> pa.Table:
        t = pc.utf8_lower(batch[text_col])
        t = pc.replace_substring_regex(t, pattern=r"\s+", replacement=" ")
        t = pc.utf8_trim_whitespace(t)
        if out_col is None:
            i = batch.schema.get_field_index(text_col)
            return batch.set_column(i, text_col, t)
        return batch.append_column(out_col, t)

    return fn


def _doc_terms(batch: pa.Table, id_col: str, text_col: str):
    """(doc_ids_per_token, token_strings) exploded from one batch —
    lowercase whitespace tokens, empties dropped (the top_terms rules)."""
    lists = pc.split_pattern_regex(pc.utf8_lower(batch[text_col]), r"\s+")
    lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
    toks = pc.list_flatten(lists)
    ids = np.repeat(batch[id_col].to_numpy(zero_copy_only=False), lens)
    keep = pc.not_equal(toks, "").to_numpy(zero_copy_only=False)
    return ids[keep], toks.to_numpy(zero_copy_only=False)[keep]


def document_frequency(ds, id_col: str = "doc_id",
                       text_col: str = "text") -> pa.Table:
    """Per-term document frequency (distinct docs containing the term).

    Vocabulary-bounded combiner: each batch collapses to its distinct
    (term -> #docs-in-batch) rows (a doc never spans batches, so per-batch
    distinct (doc, term) dedup is globally correct), then the tiny
    per-batch partials driver-merge — the exchange moves vocabulary-sized
    rows, never tokens. Returns pa.Table (term, df)."""
    from ..ops.reduce import combine

    def distinct_pairs(batch: pa.Table) -> pa.Table:
        ids, toks = _doc_terms(batch, id_col, text_col)
        if ids.shape[0] == 0:
            return pa.table({"term": pa.array([], pa.string())})
        terms, code = np.unique(toks, return_inverse=True)
        pair = ids.astype(np.int64) * np.int64(terms.shape[0]) + code
        upair = np.unique(pair)
        t_of_pair = (upair % terms.shape[0]).astype(np.int64)
        return pa.table({"term": pa.array(terms[t_of_pair],
                                          type=pa.string())})

    return combine(ds, "term", count="df", prep=distinct_pairs,
                   batch_size=8192,
                   schema=pa.schema([("term", pa.string()),
                                     ("df", pa.int64())]))


def tfidf_top_terms(ds, *, id_col: str = "doc_id", text_col: str = "text",
                    k: int = 5):
    """Per-doc top-k terms by (tf DESC, df ASC, term ASC) — the
    integer-exact TF-IDF ranking (at equal term frequency the RARER term
    ranks first; idf = ln(N/df) is monotone-decreasing in df, so ordering
    by df ascending IS the idf ordering without a float in sight).

    Two passes: the vocabulary-bounded df combiner above, then a
    zero-shuffle per-batch pass — df broadcasts once (ray.put of two
    sorted arrays), tf is a per-(doc,term) np.unique count (docs never
    span batches), and one lexsort + segment-rank filter per batch takes
    each doc's top k. Emits (doc_id, term, tf, df)."""
    import ray

    from ..ops.reduce import typed_map
    from ..ops.skew import _desc_sort_key

    dft = document_frequency(ds, id_col, text_col)
    vocab = dft["term"].to_numpy(zero_copy_only=False)
    order = np.argsort(vocab)
    vocab_ref = ray.put((vocab[order],
                         dft["df"].to_numpy(zero_copy_only=False)[order]))

    def fn(batch: pa.Table) -> pa.Table:
        ids, toks = _doc_terms(batch, id_col, text_col)
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "term": pa.array([], pa.string()),
                          "tf": pa.array([], pa.int64()),
                          "df": pa.array([], pa.int64())})
        if ids.shape[0] == 0:
            return empty
        terms, code = np.unique(toks, return_inverse=True)
        pair = ids.astype(np.int64) * np.int64(terms.shape[0]) + code
        upair, tf = np.unique(pair, return_counts=True)
        doc = (upair // terms.shape[0]).astype(np.int64)
        tcode = (upair % terms.shape[0]).astype(np.int64)
        v_terms, v_df = ray.get(vocab_ref)
        pos = np.searchsorted(v_terms, terms[tcode])
        df = v_df[pos]
        # Per-doc top-k by (tf DESC, df ASC, term ASC).
        srt = np.lexsort((terms[tcode], df, _desc_sort_key(tf), doc))
        ds_ = doc[srt]
        new = np.ones(ds_.shape[0], dtype=bool)
        new[1:] = ds_[1:] != ds_[:-1]
        seg = np.flatnonzero(new)
        rank = np.arange(ds_.shape[0]) - seg[np.cumsum(new) - 1]
        keep = srt[rank < k]
        return pa.table({id_col: doc[keep],
                         "term": pa.array(terms[tcode[keep]],
                                          type=pa.string()),
                         "tf": tf[keep].astype(np.int64),
                         "df": df[keep].astype(np.int64)})

    return typed_map(ds, fn, batch_size=8192)


def _doc_bigrams(texts) -> tuple:
    """(doc_row, bigram StringArray) for one batch of texts: positional
    consecutive-pair gather off the trim+split token ListArray — shared
    by bigram_topk's explode and the familiarity scorer."""
    la = pc.split_pattern_regex(pc.utf8_trim_whitespace(texts), r"\s+")
    if isinstance(la, pa.ChunkedArray):
        la = la.combine_chunks()
    flat = la.values
    offsets = la.offsets.to_numpy().astype(np.int64)
    n = len(flat)
    if n == 0:
        return (np.empty(0, dtype=np.int64),
                pa.array([], type=pa.string()))
    mask = np.ones(n, dtype=bool)
    mask[np.maximum(offsets[1:] - 1, 0)] = False
    idx = np.flatnonzero(mask)
    row_of = np.repeat(np.arange(len(la), dtype=np.int64),
                       offsets[1:] - offsets[:-1])
    left = flat.take(pa.array(idx))
    right = flat.take(pa.array(idx + 1))
    big = pc.binary_join_element_wise(left, right, "\x1f")
    ok = pc.and_(pc.not_equal(left, ""),
                 pc.not_equal(right, "")).to_numpy(zero_copy_only=False)
    return row_of[idx][ok], big.filter(pa.array(ok))


def bigram_familiarity(ds, text_col: str = "text",
                       id_col: str = "doc_id"):
    """LM-lite document quality scoring: how 'familiar' each document's
    bigrams are relative to the whole corpus.

    Pass 1 builds the global bigram count table (batch-local combiners,
    one vocabulary-bounded groupby — the TF-IDF df discipline; vocab
    must be bounded, same assumption as top_terms). Pass 2 broadcasts
    the sorted (bigram, count) arrays via ray.put and scores every doc
    zero-shuffle: per batch, the doc's bigrams look up their global
    counts with one searchsorted, and familiarity = cnt_sum / n_bigrams
    is a single IEEE division of exact int64 sums (SQL-identical).
    Docs with fewer than two tokens emit no row, like the SQL mirror's
    join. Returns a Dataset (id_col, n_bigrams, cnt_sum, familiarity)."""
    import ray
    from ray.data.aggregate import Sum

    from ..ops.reduce import driver_merge

    def explode(batch: pa.Table) -> pa.Table:
        _, big = _doc_bigrams(batch[text_col])
        uniq, counts = np.unique(
            big.to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({"bigram": pa.array(uniq, type=pa.string()),
                         "cnt": counts.astype(np.int64)})

    counts = driver_merge(
        ds.map_batches(explode, batch_format="pyarrow",
                       batch_size=32768)
        .groupby("bigram").aggregate(Sum("cnt", alias_name="cnt")),
        lambda t: t,
        schema=pa.schema([("bigram", pa.string()), ("cnt", pa.int64())]))
    vocab = np.asarray(counts["bigram"].to_numpy(zero_copy_only=False),
                       dtype=np.str_)
    order = np.argsort(vocab)
    state = ray.put((vocab[order],
                     counts["cnt"].to_numpy()[order].astype(np.int64)))

    def score(batch: pa.Table) -> pa.Table:
        vocab_s, cnt_s = ray.get(state)
        rows, big = _doc_bigrams(batch[text_col])
        key = np.asarray(big.to_numpy(zero_copy_only=False),
                         dtype=np.str_)
        n_docs = batch.num_rows
        nb = np.bincount(rows, minlength=n_docs).astype(np.int64)
        csum = np.zeros(n_docs, dtype=np.int64)
        if key.shape[0] and vocab_s.shape[0]:
            pos = np.minimum(np.searchsorted(vocab_s, key),
                             vocab_s.shape[0] - 1)
            hit = vocab_s[pos] == key  # always true for same-corpus scans
            np.add.at(csum, rows[hit], cnt_s[pos[hit]])
        keep = nb > 0
        fam = csum[keep].astype(np.float64) / nb[keep].astype(np.float64)
        return pa.table({id_col: batch[id_col].filter(pa.array(keep)),
                         "n_bigrams": nb[keep], "cnt_sum": csum[keep],
                         "familiarity": fam})

    return ds.map_batches(score, batch_format="pyarrow",
                          batch_size=32768)


def _term_doc_pairs(batch: pa.Table, text_col: str,
                    doc_col: str) -> tuple[np.ndarray, np.ndarray]:
    """DISTINCT (term, doc_id) pairs of one batch (whitespace tokens,
    lowercased, empties dropped) as aligned (terms str, doc_ids int64)
    arrays. A document is one row, so batch-local distinct IS global
    distinct — no cross-batch dedup needed downstream."""
    toks = pc.split_pattern_regex(pc.utf8_lower(batch[text_col]), r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    did = np.repeat(batch[doc_col].to_numpy(zero_copy_only=False)
                    .astype(np.int64), lens)
    flat = pc.list_flatten(toks)
    terms = flat.to_numpy(zero_copy_only=False)
    keep = terms != ""
    terms, did = terms[keep], did[keep]
    if terms.shape[0] == 0:
        return terms, did
    order = np.lexsort((did, terms))
    t2, d2 = terms[order], did[order]
    new = np.ones(t2.shape[0], dtype=bool)
    new[1:] = (t2[1:] != t2[:-1]) | (d2[1:] != d2[:-1])
    return t2[new], d2[new]


def inverted_postings(ds, text_col: str = "text", doc_col: str = "doc_id",
                      min_df: int = 5, max_df: int = 60):
    """Inverted-index builder: for every term whose document frequency
    falls in [min_df, max_df], the sorted posting list of doc ids (as a
    comma-joined string) plus its df. Returns a Dataset
    (term str, df int64, postings str).

    Two passes so HOT TERMS NEVER SHUFFLE: pass 1 computes df per term
    with the vocabulary-bounded combiner shape (batch-distinct counts ->
    groupby sum -> bounded driver root), the admitted [min_df, max_df]
    vocabulary broadcasts once via ray.put as a sorted array; pass 2
    re-scans, keeps only admitted pairs (searchsorted membership), and
    shuffles (term_id int, doc_id) INT pairs — strings and stopword
    posting floods ('the' x every doc) are both pruned before the
    exchange, which moves at most max_df x |admitted| rows. Posting
    lists assemble in hash-bucketed reducers (lexsort + run detection,
    the dedup.py reducer shape — never a per-term tiny group).
    """
    import ray
    from ray.data.aggregate import Sum

    from ..ops.reduce import driver_merge, exchange, typed_map, typed_rows

    def df_partial(batch: pa.Table) -> pa.Table:
        terms, _ = _term_doc_pairs(batch, text_col, doc_col)
        uniq, counts = np.unique(terms, return_counts=True)
        return pa.table({"term": pa.array(uniq, type=pa.string()),
                         "df": counts.astype(np.int64)})

    dft = driver_merge(
        ds.map_batches(df_partial, batch_format="pyarrow",
                       batch_size=32768)
        .groupby("term").aggregate(Sum("df", alias_name="df")),
        lambda t: t,
        schema=pa.schema([("term", pa.string()), ("df", pa.int64())]))
    df = dft["df"].to_numpy(zero_copy_only=False)
    adm = (df >= min_df) & (df <= max_df)
    vocab = np.sort(np.asarray(
        dft["term"].to_numpy(zero_copy_only=False)[adm], dtype=np.str_))
    state = ray.put(vocab)

    pair_schema = pa.schema([("tid", pa.int64()), ("doc_id", pa.int64())])
    out_schema = pa.schema([("term", pa.string()), ("df", pa.int64()),
                            ("postings", pa.string())])

    def admitted_pairs(batch: pa.Table) -> pa.Table:
        v = ray.get(state)
        terms, did = _term_doc_pairs(batch, text_col, doc_col)
        if terms.shape[0] == 0 or v.shape[0] == 0:
            return pair_schema.empty_table()
        key = np.asarray(terms, dtype=np.str_)
        pos = np.minimum(np.searchsorted(v, key), v.shape[0] - 1)
        hit = v[pos] == key
        return pa.table({"tid": pos[hit].astype(np.int64),
                         "doc_id": did[hit]})

    def build(group: pa.Table) -> pa.Table:
        tid = group["tid"].to_numpy(zero_copy_only=False)
        did = group["doc_id"].to_numpy(zero_copy_only=False)
        if tid.shape[0] == 0:
            return out_schema.empty_table()
        v = ray.get(state)
        order = np.lexsort((did, tid))
        t2, d2 = tid[order], did[order]
        starts = np.flatnonzero(np.r_[True, t2[1:] != t2[:-1]])
        ends = np.r_[starts[1:], t2.shape[0]]
        terms = [str(v[t2[s0]]) for s0 in starts]
        dfs = (ends - starts).astype(np.int64)
        posts = [",".join(map(str, d2[s0:s1]))
                 for s0, s1 in zip(starts, ends)]
        return pa.table({"term": pa.array(terms, type=pa.string()),
                         "df": dfs,
                         "postings": pa.array(posts, type=pa.string())})

    return typed_rows(exchange(typed_map(ds, admitted_pairs,
                                         batch_size=32768),
                               "tid", build, batch_size=65536))

"""End-to-end LLM data-curation pipeline (the flagship composition).

C4-style quality filter -> benchmark decontamination (drop contaminated)
-> ngram-Jaccard near-dedup (keep canonical per cluster) -> sequence
packing of the surviving corpus. Every stage is individually
oracle-proven; the composed query proves the chain end to end
(reference: this engine's own design — h3o has no text stack; the
composition mirrors published curation recipes, e.g. C4/Gopher).

The cleaned corpus after decontamination feeds three downstream
consumers (near-dedup's shingle pass, its pair verification join-back,
and the survivor semi-join), so it must be produced once. Two modes:

- `checkpoint_dir=None`: in-memory `materialize()` — fine at test scale.
- `checkpoint_dir=...`: DURABLE checkpoint via the resumable partitioned
  sink (io.sink.checkpoint_dataset) — hash-partitioned parquet with
  per-partition lineage manifests; downstream stages re-scan storage
  instead of pinning the intermediate in the object store, and a
  re-submitted job skips finished partitions. This is the 100-TB mode.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path

# Modules whose behavior feeds the checkpointed intermediate (everything
# upstream of — and including — the checkpoint write). Hashing their source
# into the signature means any code change automatically invalidates
# persisted checkpoints: a stale round-N checkpoint can never serve
# round-N+1 answers even if nobody remembers to bump a version constant.
_UPSTREAM_MODULES = ("pipelines/curation.py", "text/analysis.py",
                     "text/dedup.py", "ops/join.py", "io/sink.py")
_CODE_SIG: str | None = None


def _code_signature() -> str:
    global _CODE_SIG
    if _CODE_SIG is None:
        root = Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        for rel in _UPSTREAM_MODULES:
            try:
                h.update((root / rel).read_bytes())
            except OSError:
                h.update(f"missing:{rel}".encode())
        _CODE_SIG = h.hexdigest()[:12]
    return _CODE_SIG


def _input_signature(sf_dir: str) -> str:
    """Change-detecting signature of the pipeline input: path plus
    size/mtime of the documents file, plus a hash of the upstream stage
    code, so a stale checkpoint from different data OR different code is
    never reused (manifests embed this string)."""
    path = f"{sf_dir}/documents.parquet"
    tag = f"quality+decontam|code={_code_signature()}"
    try:
        st = os.stat(path)
        return f"{path}|{st.st_size}|{int(st.st_mtime)}|{tag}"
    except OSError:
        return f"{path}|missing|{tag}"


def curation_pipeline(sf_dir: str, *, checkpoint_dir: str | None = None,
                      threshold: float = 0.5, budget: int = 8192,
                      bench_k: int = 20, timings: dict | None = None):
    """Run the curation chain over `sf_dir`/documents.parquet.

    Returns a Dataset of (doc_id, pack_id) — the packed surviving corpus.
    Pass `timings={}` to force stage boundaries and record per-stage wall
    seconds (bench instrumentation; slightly changes fusion, so leave None
    in production runs).
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from ..ops.join import semi_join
    from ..ops.reduce import typed_map
    from ..ops.scan import pack_sequences
    from ..text.analysis import quality_filter_stage
    from ..text.dedup import contamination_flags, near_dedup

    t0 = time.time()
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "n_chars"])
    kept = typed_map(docs, quality_filter_stage())
    bench = rd.read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"],
                            filter=pc.field("doc_id") < 10)
    flags = contamination_flags(kept, bench, key_col="doc_id", k=bench_k)

    def clean_ids(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b["contaminated"], 0)).select(["doc_id"])

    clean = semi_join(kept,
                      flags.map_batches(clean_ids, batch_format="pyarrow"),
                      "doc_id", "doc_id")
    if checkpoint_dir is not None:
        from ..io.sink import checkpoint_dataset

        clean = checkpoint_dataset(clean, checkpoint_dir,
                                   _input_signature(sf_dir),
                                   key_col="doc_id")
    else:
        clean = clean.materialize()
    if timings is not None:
        timings["filter_decontam_checkpoint"] = time.time() - t0
        t0 = time.time()

    unique_docs = near_dedup(clean, key_col="doc_id", threshold=threshold)
    if timings is not None:
        unique_docs = unique_docs.materialize()
        timings["near_dedup"] = time.time() - t0
        t0 = time.time()

    packed = pack_sequences(unique_docs, order_col="doc_id",
                            size_col="n_chars", budget=budget,
                            bucket_width=64)
    # A map, not select_columns: Ray's projection passes the typed empty
    # block of an empty pack through unprojected; this seed types the
    # result instead.
    out = rd.from_arrow(pa.schema([("doc_id", pa.int64()),
                                   ("pack_id", pa.int64())]).empty_table()) \
        .union(packed.map_batches(lambda b: b.select(["doc_id", "pack_id"]),
                                  batch_format="pyarrow"))
    if timings is not None:
        out = out.materialize()
        timings["pack"] = time.time() - t0
    return out

"""Multimodal (image/audio/video) processing stages over opaque binary columns.

Design (SURVEY/engine brief): media payloads travel as `binary` columns with
typed metadata columns beside them; decode is a STATEFUL actor-pool stage —
the codec handle is built once per actor in `__init__`, batches flow
through `__call__` as zero-copy Arrow tables. Media codecs are not in this
environment, so the decode core is STUBBED: `codec="fake"` (default) is a
deterministic byte-hash pseudo-decoder that produces stable shapes for
tests and benchmarks; `codec="pil"` raises NotImplementedError unless PIL
is importable. The Ray-side plumbing (schemas, batch sizing, actor
signatures, output layout) is real.

Large payloads need small batches: size `batch_size` so
batch_size x avg_payload x concurrency fits the worker heap (e.g. 256 rows
of 1 MB images x 8 actors ~ 2 GiB).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _hash_bytes_batch(bin_col: pa.Array) -> np.ndarray:
    """Deterministic 64-bit hash per binary payload (vectorized over the
    Arrow value buffer — same polynomial+avalanche as url_hash64)."""
    from .io.pages import url_hash64

    return url_hash64(bin_col)


class ImageDecodeStage:
    """binary -> (width, height, channels, ok) metadata columns.

    Actor-pool stage: `ds.map_batches(ImageDecodeStage, fn_constructor_kwargs=
    {"codec": "fake"}, concurrency=N, batch_size=256, batch_format="pyarrow")`.
    """

    def __init__(self, col: str = "html", codec: str = "fake"):
        self.col = col
        if codec == "pil":
            try:
                from PIL import Image  # noqa: F401
                self._pil = Image
            except ImportError as exc:  # codec not baked into this env
                raise NotImplementedError(
                    "PIL not available in this environment; use codec='fake'"
                ) from exc
        elif codec != "fake":
            raise NotImplementedError(f"codec {codec!r} not supported")
        self.codec = codec

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        import pyarrow.compute as pc

        if self.codec == "pil":
            return self._decode_pil(batch, col)
        h = _hash_bytes_batch(col)
        # Deterministic fake decode: dimensions derived from the payload hash.
        width = (64 + (h % np.uint64(193))).astype(np.int32)
        height = (64 + ((h >> np.uint64(8)) % np.uint64(129))).astype(np.int32)
        lengths = pc.binary_length(col).to_numpy(zero_copy_only=False)
        ok = lengths > 0
        return batch.append_column(
            "img_w", pa.array(width)).append_column(
            "img_h", pa.array(height)).append_column(
            "img_c", pa.array(np.full(len(col), 3, dtype=np.int32))
        ).append_column("decode_ok", pa.array(ok))

    def _decode_pil(self, batch: pa.Table, col: pa.Array) -> pa.Table:
        """Real decode: per-payload PIL open (decode is inherently per-item;
        the vectorization win lives in batch sizing + the actor pool)."""
        import io as _io

        n = len(col)
        width = np.zeros(n, dtype=np.int32)
        height = np.zeros(n, dtype=np.int32)
        chans = np.zeros(n, dtype=np.int32)
        ok = np.zeros(n, dtype=bool)
        for idx in range(n):
            payload = col[idx].as_py()
            if not payload:
                continue
            try:
                with self._pil.open(_io.BytesIO(payload)) as im:
                    width[idx] = im.width
                    height[idx] = im.height
                    chans[idx] = len(im.getbands())
                    ok[idx] = True
            except Exception:  # undecodable payload -> decode_ok=False row
                pass
        return batch.append_column(
            "img_w", pa.array(width)).append_column(
            "img_h", pa.array(height)).append_column(
            "img_c", pa.array(chans)).append_column(
            "decode_ok", pa.array(ok))


def decode_metadata(ds, col: str = "html", concurrency: int = 4,
                    batch_size: int = 256):
    """Actor-pool decode-metadata pipeline over a binary column."""
    return ds.map_batches(
        ImageDecodeStage,
        fn_constructor_kwargs={"col": col},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency)


class ByteStatsStage:
    """binary -> (n_bytes, byte_entropy, mime) REAL feature columns.

    Unlike the fake codec stages above, nothing here is stubbed: a byte
    histogram, Shannon entropy (bits/byte — the standard compressibility
    / encrypted-vs-text signal in crawl triage), and magic-prefix content
    sniffing are computable on any binary payload with pure NumPy. One
    pass over the Arrow value buffer per batch: a composite
    (row, byte)-bincount builds every row's 256-bin histogram at once
    (no per-payload Python), and the sniff packs each payload's first 4
    bytes into one uint32 compared against a constant table built once
    per actor in __init__.

    Memory: histograms are rows x 256 x int64 (~2 MB at batch_size 1024)
    plus one int64 per payload byte for the composite — size batch_size
    so batch bytes x concurrency fits the worker heap, same rule as the
    decode stages.
    """

    #: (packed first-4-bytes, required prefix length, label)
    _MAGIC = [
        (b"\x89PNG", 4, "png"),
        (b"\xff\xd8\xff", 3, "jpeg"),
        (b"GIF8", 4, "gif"),
        (b"%PDF", 4, "pdf"),
        (b"RIFF", 4, "riff"),
        (b"PK\x03\x04", 4, "zip"),
        (b"<htm", 4, "html"),
        (b"<!DO", 4, "html"),
    ]

    def __init__(self, col: str = "html"):
        self.col = col
        packed, masks, labels = [], [], []
        for prefix, k, label in self._MAGIC:
            b = (prefix + b"\x00" * 4)[:4]
            v = int.from_bytes(b, "big")
            m = int.from_bytes(b"\xff" * k + b"\x00" * (4 - k), "big")
            packed.append(v & m)
            masks.append(m)
            labels.append(label)
        self._magic_vals = np.array(packed, dtype=np.uint32)
        self._magic_masks = np.array(masks, dtype=np.uint32)
        self._magic_labels = np.array(labels)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(col)
        if n == 0:
            return batch.append_column(
                "n_bytes", pa.array([], pa.int64())).append_column(
                "byte_entropy", pa.array([], pa.float64())).append_column(
                "mime", pa.array([], pa.string()))
        off_dtype = np.int64 if pa.types.is_large_binary(col.type) \
            else np.int32
        off_buf = np.frombuffer(col.buffers()[1], dtype=off_dtype)
        offsets = off_buf[col.offset:col.offset + n + 1].astype(np.int64)
        data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
        flat = data[offsets[0]:offsets[-1]]
        starts = offsets[:-1] - offsets[0]
        lengths = (offsets[1:] - offsets[:-1])
        idx_rep = np.repeat(np.arange(n, dtype=np.int64), lengths)
        hist = np.bincount(idx_rep * 256 + flat,
                           minlength=n * 256).reshape(n, 256)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = hist / np.maximum(lengths, 1)[:, None]
            logp = np.where(p > 0, np.log2(p, where=p > 0), 0.0)
        entropy = -(p * logp).sum(axis=1)
        entropy[lengths == 0] = 0.0

        # magic-prefix sniff: first 4 bytes packed big-endian (short
        # payloads zero-padded so a 3-byte mask can still match)
        head = np.zeros((n, 4), dtype=np.uint8)
        for j in range(4):
            sel = lengths > j
            head[sel, j] = flat[starts[sel] + j]
        packed = (head[:, 0].astype(np.uint32) << 24) \
            | (head[:, 1].astype(np.uint32) << 16) \
            | (head[:, 2].astype(np.uint32) << 8) \
            | head[:, 3].astype(np.uint32)
        mime = np.full(n, "other", dtype=object)
        matched = np.zeros(n, dtype=bool)
        for v, m, lab in zip(self._magic_vals, self._magic_masks,
                             self._magic_labels):
            hit = ~matched & ((packed & m) == v)
            mime[hit] = lab
            matched |= hit
        return batch.append_column(
            "n_bytes", pa.array(lengths)).append_column(
            "byte_entropy", pa.array(entropy)).append_column(
            "mime", pa.array(mime, type=pa.string()))


def byte_stats(ds, col: str = "html", concurrency: int = 4,
               batch_size: int = 1024):
    """Actor-pool byte-statistics pipeline over a binary column."""
    return ds.map_batches(
        ByteStatsStage,
        fn_constructor_kwargs={"col": col},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency)

"""Multimodal actor-pool stages: plumbing is real, codecs stubbed."""

import numpy as np
import pytest

from h3ray import multimodal
from h3ray.io import pages as pages_io

SF = "/root/testdata/sf0.001"


def test_decode_metadata_actor_pool(ray_session):
    ds = pages_io.pages_from_documents(SF).limit(500)
    out = multimodal.decode_metadata(ds, col="html", concurrency=2)
    df = out.to_pandas()
    assert {"img_w", "img_h", "img_c", "decode_ok"} <= set(df.columns)
    assert df.decode_ok.all()
    assert (df.img_w >= 64).all() and (df.img_h >= 64).all()


def test_real_codecs_raise_not_implemented():
    try:
        import PIL  # noqa: F401
        pytest.skip("PIL present; covered by test_pil_decode_real")
    except ImportError:
        pass
    with pytest.raises(NotImplementedError):
        multimodal.ImageDecodeStage(codec="pil")


def test_pil_decode_real():
    """Real-codec seam: runs wherever PIL is available (skipped here —
    codecs are not baked into this container)."""
    PIL = pytest.importorskip("PIL")
    import io

    from PIL import Image
    import pyarrow as pa

    bufs = []
    for w, h in ((10, 7), (3, 3)):
        img = Image.new("RGB", (w, h), (120, 10, 10))
        b = io.BytesIO()
        img.save(b, format="PNG")
        bufs.append(b.getvalue())
    bufs.append(b"not-an-image")
    batch = pa.Table.from_arrays(
        [pa.array(bufs, type=pa.binary())], names=["html"])
    out = multimodal.ImageDecodeStage(col="html", codec="pil")(batch)
    assert out["img_w"].to_pylist() == [10, 3, 0]
    assert out["img_h"].to_pylist() == [7, 3, 0]
    assert out["img_c"].to_pylist() == [3, 3, 0]
    assert out["decode_ok"].to_pylist() == [True, True, False]


def test_byte_stats_matches_python_reference():
    """The vectorized histogram/entropy/sniff must equal a per-row
    Python reference (Counter + math.log2) on arbitrary payloads."""
    import collections
    import math

    import numpy as np
    import pyarrow as pa

    rng = np.random.default_rng(5)
    payloads = [
        b"",
        b"\x00",
        b"aaaa",
        bytes(rng.integers(0, 256, 1000, dtype=np.uint8)),
        b"\x89PNG\r\n\x1a\n" + b"x" * 50,
        b"\xff\xd8\xff\xe0jpegdata",
        b"GIF89a....",
        b"%PDF-1.7 ...",
        b"PK\x03\x04zipdata",
        b"<html><body>hi</body></html>",
        b"<!DOCTYPE html><p>x</p>",
        b"RIFF....WAVE",
        b"\xff\xd8",  # short: 3-byte jpeg magic must NOT match
    ]
    batch = pa.Table.from_arrays(
        [pa.array(payloads, type=pa.binary())], names=["html"])
    out = multimodal.ByteStatsStage(col="html")(batch)

    def ref_entropy(b: bytes) -> float:
        if not b:
            return 0.0
        c = collections.Counter(b)
        n = len(b)
        return -sum((k / n) * math.log2(k / n) for k in c.values())

    assert out["n_bytes"].to_pylist() == [len(b) for b in payloads]
    for got, b in zip(out["byte_entropy"].to_pylist(), payloads):
        assert abs(got - ref_entropy(b)) < 1e-12, b[:8]
    assert out["mime"].to_pylist() == [
        "other", "other", "other", "other", "png", "jpeg", "gif",
        "pdf", "zip", "html", "html", "riff", "other"]


def test_byte_stats_pipeline_over_pages(ray_session):
    from h3ray.io.pages import pages_from_documents
    from h3ray.multimodal import byte_stats

    ds = byte_stats(pages_from_documents("/root/testdata/sf0.001"),
                    col="html", concurrency=(1, 2), batch_size=512)
    t = ds.take_batch(100, batch_format="pyarrow")
    # every synthetic page is '<html>...' -> sniffs as html, 26B wrapper
    assert set(t["mime"].to_pylist()) == {"html"}
    assert all(v >= 26 for v in t["n_bytes"].to_pylist())
    assert all(0.0 < v < 8.0 for v in t["byte_entropy"].to_pylist())

"""Synthetic Common-Crawl-style `pages` table + deterministic geotagging.

Schema (BASELINE.json input_hint, authoritative):
    pages(url: string, warc_ts: timestamp[us], html: binary,
          text: string, lang: string)

Everything is a pure function of the url (and the fixed module seed), so the
table can be regenerated at any scale and the per-row invariant holds: the
`text` column passes through the engine byte-identical per url.

Geotag model (FIXTURES.md §1): hash(url) drives a mixture — 80% of mass in
~50 "city" Gaussian clusters (hot-cell skew), 20% uniform on the sphere, and
a fixed 0.1% slice near the 12 pentagon res-0 centers / the antimeridian to
exercise H3 distortion paths.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels import bits as _bits
from ..kernels import latlng as _latlng
from ..kernels.constants import DEFAULT_CELL_INDEX
from ..kernels._tables import PENTAGON_BASE_CELLS

SEED = 0x5EED_C0DE
N_CITIES = 50
LANGS = np.array(["en", "de", "fr", "es", "zh"])

# Fixed city centers (avoid poles); deterministic.
_rng = np.random.default_rng(SEED)
CITY_LAT = _rng.uniform(-55.0, 65.0, N_CITIES)
CITY_LNG = _rng.uniform(-179.0, 179.0, N_CITIES)
CITY_SIGMA = 0.05  # degrees

# Pentagon res-0 centers (for the distortion slice).
_pent_cells = _bits.set_base_cell(
    np.full(12, DEFAULT_CELL_INDEX, dtype=np.int64), PENTAGON_BASE_CELLS)
PENT_LAT, PENT_LNG = _latlng.cell_to_latlng(_pent_cells)

_POLY_P = 1099511628211  # FNV prime, used as polynomial base
_MAX_URL = 96
_P_POWERS = np.array([pow(_POLY_P, _i, 1 << 64) for _i in range(_MAX_URL)],
                     dtype=np.uint64)


def url_hash64(urls) -> np.ndarray:
    """Vectorized 64-bit polynomial hash over UTF-8 bytes of each string.

    sum_p byte[p] * P^min(p, 95) (mod 2^64) per string, then a splitmix64
    finalizer; an empty string hashes its seed instead of an empty sum.
    Accepts a pyarrow (large) string/binary Array or ChunkedArray, or a
    sequence of values (hashed as `str`). Deterministic across runs and
    processes (unlike Python's hash()).
    """
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    if not isinstance(urls, (pa.StringArray, pa.LargeStringArray,
                             pa.BinaryArray, pa.LargeBinaryArray)):
        urls = pa.array([str(u) for u in urls], type=pa.string())
    n = len(urls)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    _, off_buf, data_buf = urls.buffers()
    # Large string/binary arrays carry int64 offsets; plain ones int32.
    off_dtype = np.int64 if isinstance(
        urls, (pa.LargeStringArray, pa.LargeBinaryArray)) else np.int32
    offsets = np.frombuffer(off_buf, dtype=off_dtype, count=n + 1 +
                            urls.offset)[urls.offset:].astype(np.int64)
    lengths = np.diff(offsets)
    sums = np.zeros(n, dtype=np.uint64)
    # Column-wise over the first _MAX_URL - 1 byte positions: rows sorted
    # by length, longest first, so the rows still longer than position p
    # are a prefix of that order. Each step adds one byte per such row
    # (uint64 sums wrap, so order is free).
    order = np.argsort(-lengths, kind="stable")
    head = min(int(lengths[order[0]]), _MAX_URL - 1)
    if head:
        data = np.frombuffer(data_buf, dtype=np.uint8)
        pos = offsets[:-1][order]
        n_longer = np.searchsorted(-lengths[order], -np.arange(head))
        acc = np.zeros(n, dtype=np.uint64)
        term = np.empty(n, dtype=np.uint64)
        for p in range(head):
            c = int(n_longer[p])
            np.multiply(data[pos[:c]], _P_POWERS[p], out=term[:c],
                        dtype=np.uint64)
            acc[:c] += term[:c]
            pos[:c] += 1
        sums[order] = acc
        # Every byte from position _MAX_URL - 1 on shares the top power:
        # one segment sum per longer row. Segments in row order end at
        # increasing offsets; reduceat sums [start, end) at the even slots
        # and runs its last slot to the end of data[:last end].
        tail = np.flatnonzero(lengths > head)
        if tail.size:
            bounds = np.stack([offsets[tail] + head, offsets[tail + 1]],
                              axis=1).ravel()
            sums[tail] += np.add.reduceat(
                data[:bounds[-1]], bounds[:-1], dtype=np.uint64)[::2] \
                * _P_POWERS[-1]
    sums[lengths == 0] = 0x9E3779B97F4A7C15
    # Final avalanche (splitmix64 finalizer).
    return _mix64(sums)


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _unit(h: np.ndarray, salt: int) -> np.ndarray:
    """Deterministic uniform [0,1) stream derived from hashes."""
    return (_mix64(h + np.uint64(salt)) >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def geotag(urls) -> tuple[np.ndarray, np.ndarray]:
    """Deterministically derive (lat_deg, lng_deg) from urls."""
    h = url_hash64(urls)
    return geotag_from_hash(h)


def geotag_encode(urls, res: int):
    """Geotag a url column and encode the points at `res`.

    Returns (urls as one Array, lat_deg, lng_deg, int64 cells)."""
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    lat, lng = geotag(urls)
    return urls, lat, lng, _latlng.latlng_to_cell(lat, lng, res)


def geotag_from_hash(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lat_deg, lng_deg) of each hash. `_unit(h, 1)` picks the mixture
    branch and each branch runs on its own rows only."""
    h = np.asarray(h)
    u_sel = _unit(h, 1)
    lat = np.empty(h.shape[0])
    lng = np.empty(h.shape[0])

    # City clusters (80%): Box-Muller Gaussian jitter around the center.
    rows = np.flatnonzero((u_sel >= 0.001) & (u_sel < 0.801))
    hc = h[rows]
    u_city = (_mix64(hc + np.uint64(2)) % np.uint64(N_CITIES)).astype(np.int64)
    u1 = np.clip(_unit(hc, 3), 1e-12, 1.0)
    u2 = _unit(hc, 4)
    r = np.sqrt(-2.0 * np.log(u1)) * CITY_SIGMA
    lat[rows] = np.clip(CITY_LAT[u_city] + r * np.cos(2 * np.pi * u2),
                        -89.9, 89.9)
    lng[rows] = CITY_LNG[u_city] + r * np.sin(2 * np.pi * u2)

    # Uniform on the sphere (20%).
    rows = np.flatnonzero(u_sel >= 0.801)
    hu = h[rows]
    lat[rows] = np.rad2deg(np.arcsin(2.0 * _unit(hu, 5) - 1.0))
    lng[rows] = 360.0 * _unit(hu, 6) - 180.0

    # Distortion slice (0.1%): near the 12 pentagon centers, or the
    # antimeridian (u_d == 12).
    rows = np.flatnonzero(u_sel < 0.001)
    if rows.size:
        hd = h[rows]
        u_d = (_mix64(hd + np.uint64(7)) % np.uint64(13)).astype(np.int64)
        jit1 = (_unit(hd, 8) - 0.5) * 0.2
        jit2 = (_unit(hd, 9) - 0.5) * 0.2
        near = u_d < 12
        lat[rows] = np.where(near, PENT_LAT[np.minimum(u_d, 11)] + jit1,
                             (_unit(hd, 10) - 0.5) * 160.0)
        lng[rows] = np.where(near, PENT_LNG[np.minimum(u_d, 11)] + jit2,
                             np.where(_unit(hd, 11) < 0.5,
                                      -180.0 + np.abs(jit2),
                                      180.0 - np.abs(jit2)))
    # Normalize lng to [-180, 180).
    lng += 180.0
    lng %= 360.0
    lng -= 180.0
    return lat, lng


_WORDS = np.array([
    "data", "stream", "hex", "grid", "page", "crawl", "index", "sphere",
    "tile", "join", "shard", "vector", "cell", "river", "mountain", "city",
    "market", "news", "report", "science", "energy", "travel", "music",
    "health", "sport", "code", "cloud", "graph", "model", "query",
])
_WORDS_ARROW = pa.array(_WORDS, type=pa.string())


def make_pages_batch(ids: np.ndarray) -> pa.Table:
    """Build a pages batch from int64 row ids (pure function of id)."""
    ids = np.asarray(ids, dtype=np.int64)
    h = _mix64(ids.astype(np.uint64))
    # Zipf-ish site distribution: site = floor(exp(u * ln(100000)))
    import pyarrow.compute as pc

    u = _unit(h, 20)
    site = np.floor(np.exp(u * np.log(100000.0))).astype(np.int64) % 100000
    site_s = pc.utf8_lpad(pc.cast(pa.array(site), pa.string()), 5, "0")
    path_s = pc.utf8_lpad(pc.cast(pa.array(ids % 10_000_000), pa.string()),
                          7, "0")
    urls = pc.binary_join_element_wise(
        pa.scalar("https://site"), site_s, pa.scalar(".example/"), path_s, "")
    ts = (np.int64(1609459200_000000) + ids * 977) # fixed epoch + offset, us
    # Deterministic token sequence per id — fully vectorized: draw all words
    # flat, then join per row with Arrow's binary_join.
    import pyarrow.compute as pc

    n_words = 8 + (h % np.uint64(25)).astype(np.int64)
    bounds = np.concatenate([[0], np.cumsum(n_words)])
    total = int(bounds[-1])
    intra = np.arange(total, dtype=np.uint64) - np.repeat(
        bounds[:-1].astype(np.uint64), n_words)
    hh = _mix64(np.repeat(h, n_words) + intra)
    # Arrow `take` from the vocabulary, not a NumPy unicode gather: the
    # latter is a ~21 MB temporary per 32K pages, and freeing it raises
    # glibc's mmap threshold so far that every later kernel temporary is
    # carved from (and kept resident in) the heap.
    flat_words = _WORDS_ARROW.take(
        (hh % np.uint64(len(_WORDS))).astype(np.int64))
    word_lists = pa.ListArray.from_arrays(bounds.astype(np.int32), flat_words)
    text = pc.binary_join(word_lists, " ")
    html = pc.binary_join_element_wise(
        pa.scalar("<html><body>"), text, pa.scalar("</body></html>"), "")
    html = html.cast(pa.binary())
    lang = pa.array(LANGS[(h % np.uint64(5)).astype(np.int64)], type=pa.string())
    return pa.Table.from_arrays(
        [urls, pa.array(ts, type=pa.timestamp("us")), html, text, lang],
        names=["url", "warc_ts", "html", "text", "lang"])


def generate_pages(n_rows: int, *, parallelism: int = -1):
    """A lazy Ray Dataset of `n_rows` synthetic pages."""
    import ray.data as rd

    ds = rd.range(n_rows, override_num_blocks=parallelism) \
        if parallelism > 0 else rd.range(n_rows)
    return ds.map_batches(
        lambda b: make_pages_batch(b["id"]),
        batch_format="numpy", batch_size=32768)


def pages_from_documents(sf_dir: str):
    """Derive a deterministic pages table from the driver's documents table.

    Used by the __ray_entry__ queries so sf_dir parametrizes scale while the
    text column stays byte-identical to the source (per-row invariant).
    """
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet")

    import pyarrow.compute as pc

    def to_pages(batch: pa.Table) -> pa.Table:
        doc_id = batch["doc_id"].to_numpy()
        h = _mix64(doc_id.astype(np.uint64))
        site = (h % np.uint64(997)).astype(np.int64)
        # Vectorized url build (same form as make_pages_batch): zero-padded
        # site/doc segments joined with Arrow kernels, no per-row Python.
        site_s = pc.utf8_lpad(pc.cast(pa.array(site), pa.string()), 5, "0")
        doc_s = pc.utf8_lpad(pc.cast(pa.array(doc_id), pa.string()), 7, "0")
        urls = pc.binary_join_element_wise(
            pa.scalar("https://site"), site_s, pa.scalar(".example/"),
            doc_s, "")
        ts = pa.array(np.int64(1609459200_000000) + doc_id * 977,
                      type=pa.timestamp("us"))
        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        html = pc.binary_join_element_wise(
            pa.scalar("<html><body>"), text,
            pa.scalar("</body></html>"), "").cast(pa.binary())
        return pa.Table.from_arrays([urls, ts, html, text, batch["lang"]],
                                    names=["url", "warc_ts", "html", "text",
                                           "lang"])

    from ..ops.reduce import typed_map

    return typed_map(ds, to_pages, batch_size=32768)

"""The benchmark workloads.

Each workload builds its inputs from the seed (before any clock starts),
runs one pass of the engine over them, and checks the pass output:

- encode_counts: `pipelines.geotag.cell_counts` vs a no-Ray NumPy count
  made with the same `io.pages` and `kernels` functions. That recount
  checks the Ray Data and driver-merge wiring only, so the kernels are
  checked on their own against answers that do not come from this run's
  code: two documented H3 goldens and a fixed canary whose cell digests
  make_expected.py recorded in data/expected.json;
- spatial_join: `pipelines.pip.pip_join` + `pipelines.knn.knn_join` vs a
  brute-force point-in-polygon and an all-pages haversine top-k;
- driver_queries: `tools/check_oracles.value_hash` of each query output on
  a seeded row permutation vs the hash on the unpermuted tables (recorded
  in data/expected.json by make_expected.py, which also checks each
  against its DuckDB oracle).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

HERE = Path(__file__).resolve().parent
DATA = HERE / "data" / "sf0.01"
EXPECTED = HERE / "data" / "expected.json"

#: Rows per page-parquet file; kernels run on 32768-row batches like the
#: pipelines themselves.
FILE_ROWS = 200_000
CHUNK = 32_768

#: The driver-query list and the tables each entry reads.
QUERIES = {
    "lineitem_pricing_summary": ("lineitem",),
    "orders_by_nation_shuffle_join": ("orders", "customer"),
    "product_type_profit": ("part", "supplier", "lineitem", "orders",
                            "nation"),
    "events_user_sessions": ("events",),
    "events_median_by_type": ("events",),
}

#: H3's documented latLngToCell answers, (lat, lng, res, cell): not
#: derived from this repository's kernels.
H3_GOLDENS = (
    (37.7752702151959257, -122.418307270836384, 9, 0x8928308280fffff),
    (37.3615593, -122.0553238, 5, 0x85283473fffffff),
)
#: Pages 0 .. CANARY_PAGES-1 are the kernel canary; make_expected.py
#: records the digests of their cells in data/expected.json.
CANARY_PAGES = 65_536

#: Spatial-join shape. city_polygons(32) keeps one polygon per city for 32
#: of the 50 page clusters (~51% of pages match); the 0.15 degree radius
#: (3 sigma of a cluster) keeps that selectivity while the per-call tiling
#: stays near 1.5 s on one core (the library default of 0.75 deg costs
#: ~10 s per call).
PIP_POLYGONS = 32
PIP_RADIUS_DEG = 0.15
PIP_RES = 8
KNN_QUERIES = 50
KNN_RES = 7
KNN_K_RING = 2
KNN_K = 10


# --------------------------------------------------------------------- inputs

def page_urls(start: int, n: int) -> pa.StringArray:
    """Urls of pages `start .. start+n-1` from `io.pages.make_pages_batch`.

    The url path is the page id modulo 10^7, so no url repeats for
    n <= 10^7."""
    from h3ray.io import pages as pio

    return pa.concat_arrays([
        pio.make_pages_batch(np.arange(start + off,
                                       start + min(off + CHUNK, n)))["url"]
        .combine_chunks()
        for off in range(0, n, CHUNK)])


def make_urls(seed: int, n: int) -> pa.StringArray:
    """`n` distinct page urls, starting at a page id drawn from the seed."""
    start = int(np.random.default_rng([seed, 0x0E1]).integers(0, 2**40))
    return page_urls(start, n)


def write_pages(urls: pa.StringArray, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, off in enumerate(range(0, len(urls), FILE_ROWS)):
        pq.write_table(pa.table({"url": urls.slice(off, FILE_ROWS)}),
                       out_dir / f"pages-{i:04d}.parquet")


def chunks(arr: pa.Array, size: int = CHUNK):
    for off in range(0, len(arr), size):
        yield arr.slice(off, size)


def geotag_all(urls: pa.StringArray) -> tuple[np.ndarray, np.ndarray]:
    from h3ray.io import pages as pio

    lats, lngs = [], []
    for part in chunks(urls):
        lat, lng = pio.geotag(part)
        lats.append(lat)
        lngs.append(lng)
    return np.concatenate(lats), np.concatenate(lngs)


def encode_chain(lat: np.ndarray, lng: np.ndarray):
    """latLngToCell r9 and its r3 parent, in CHUNK-row slices, with the
    kernels the pipeline uses; returns (r9 cells, r3 parents) as uint64."""
    from h3ray.kernels import bits, latlng

    cells = np.concatenate([
        bits.as_u64(latlng.latlng_to_cell(lat[o:o + CHUNK], lng[o:o + CHUNK],
                                          9))
        for o in range(0, lat.shape[0], CHUNK)])
    parents = np.concatenate([
        bits.as_u64(bits.cell_to_parent(cells[o:o + CHUNK], 3))
        for o in range(0, cells.shape[0], CHUNK)])
    return cells, parents


def encode_canary() -> dict:
    """Digests of the canary pages' r9 cells and r3 (parent, count) pairs."""
    cells, parents = encode_chain(*geotag_all(page_urls(0, CANARY_PAGES)))
    uniq, counts = np.unique(parents, return_counts=True)
    pairs = np.stack([uniq, counts.astype(np.uint64)], axis=1)
    return {"pages": CANARY_PAGES,
            "cells_r9_sha256": hashlib.sha256(cells.tobytes()).hexdigest(),
            "parent_r3_counts_sha256":
                hashlib.sha256(pairs.tobytes()).hexdigest()}


def golden_error() -> str | None:
    """latLngToCell against H3's documented goldens; None when right."""
    from h3ray.kernels import bits, latlng

    for lat, lng, res, cell in H3_GOLDENS:
        got = int(bits.as_u64(latlng.latlng_to_cell(
            np.array([lat]), np.array([lng]), res))[0])
        if got != cell:
            return f"latlng_to_cell({lat}, {lng}, {res}) = {got:#x}, " \
                f"documented {cell:#x}"
    return None


def kernel_check() -> str | None:
    """The encode kernels against answers not computed by this run: H3's
    documented goldens and the recorded canary digests. None when right."""
    error = golden_error()
    if error is None and encode_canary() \
            != expected_hashes()["encode_canary"]:
        error = "canary cell digests differ from data/expected.json"
    return error


def load_table(name: str) -> pa.Table:
    """A committed sf0.01 copy, verified against data/MANIFEST.json."""
    path = DATA / f"{name}.parquet"
    manifest = json.loads((HERE / "data" / "MANIFEST.json").read_text())
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != manifest[f"{name}.parquet"]:
        raise RuntimeError(f"{path} does not match its manifest digest")
    return pq.read_table(path)


def write_permuted(names, seed: int, out_dir: Path) -> dict[str, int]:
    """Seeded row permutation of each table, schema metadata preserved.
    Returns the row count of each table."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = {}
    for i, name in enumerate(sorted(set(names))):
        table = load_table(name)
        perm = np.random.default_rng([seed, 0x7AB, i]).permutation(
            table.num_rows)
        shuffled = table.take(pa.array(perm))
        if shuffled.schema.metadata != table.schema.metadata:
            raise RuntimeError(f"{name}: permutation lost schema metadata")
        pq.write_table(shuffled, out_dir / f"{name}.parquet")
        if pq.read_schema(out_dir / f"{name}.parquet").metadata \
                != table.schema.metadata:
            raise RuntimeError(f"{name}: written copy lost schema metadata")
        rows[name] = table.num_rows
    return rows


def expected_hashes() -> dict:
    return json.loads(EXPECTED.read_text())


def value_hash(out) -> str:
    from tools import check_oracles

    return check_oracles.value_hash(check_oracles.to_pandas(out))


def collect(ds) -> pa.Table:
    """Drain a Dataset (or pass a Table through) into one Arrow table."""
    if isinstance(ds, pa.Table):
        return ds
    tables = [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch)
              else b
              for b in ds.iter_batches(batch_format="pyarrow",
                                       batch_size=None)]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables)


# ------------------------------------------------------------------ workloads

class Workload:
    """One workload: inputs from the seed, one pass, one output check.

    `rows` is the input-row count a pass processes; `run_pass` returns the
    pass output (and the Datasets it drained, for `Dataset.stats()`);
    `check` returns None when the output is right, else a reason."""

    name = ""
    rows = 0

    def prepare(self, seed: int, work: Path, toy: bool) -> None:
        raise NotImplementedError

    def run_pass(self):
        raise NotImplementedError

    def check(self, out) -> str | None:
        raise NotImplementedError


class EncodeCounts(Workload):
    """Pages -> geotag -> latLngToCell r9 -> parent r3 -> per-cell counts."""

    name = "encode_counts"
    N_PAGES, TOY_PAGES = 400_000, 20_000

    def prepare(self, seed, work, toy):
        self.rows = self.TOY_PAGES if toy else self.N_PAGES
        urls = make_urls(seed, self.rows)
        self.pages_dir = work / "pages"
        write_pages(urls, self.pages_dir)
        _, parents = encode_chain(*geotag_all(urls))
        self.ref_cells, self.ref_counts = np.unique(parents,
                                                    return_counts=True)
        self.kernel_error = kernel_check()

    def run_pass(self):
        import ray.data as rd

        from h3ray.pipelines import geotag

        ds = geotag.cell_counts(rd.read_parquet(str(self.pages_dir)),
                                res=9, parent_res=3)
        return collect(ds), [ds]

    def check(self, out):
        if self.kernel_error is not None:
            return f"encode kernels are wrong: {self.kernel_error}"
        cells = out["parent_r3"].to_numpy().astype(np.uint64)
        counts = out["num_pages"].to_numpy()
        if int(counts.sum()) != self.rows:
            return f"counts sum to {int(counts.sum())}, not {self.rows}"
        order = np.argsort(cells)
        if not (np.array_equal(cells[order], self.ref_cells)
                and np.array_equal(counts[order], self.ref_counts)):
            return "per-cell counts differ from the NumPy recomputation"
        return None


def pip_fingerprint(url_hash: np.ndarray, polygon_id: np.ndarray) -> str:
    pairs = np.stack([url_hash.astype(np.uint64),
                      polygon_id.astype(np.uint64)], axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return hashlib.sha256(pairs[order].tobytes()).hexdigest()


class SpatialJoin(Workload):
    """Pages -> exact PIP join vs 32 city polygons, then kNN vs 50 cities."""

    name = "spatial_join"
    N_PAGES, TOY_PAGES = 50_000, 10_000

    def prepare(self, seed, work, toy):
        from h3ray.io import pages as pio
        from h3ray.kernels import region
        from h3ray.pipelines import knn, pip

        self.rows = self.TOY_PAGES if toy else self.N_PAGES
        urls = make_urls(seed, self.rows)
        self.pages_dir = work / "pages"
        write_pages(urls, self.pages_dir)
        self.geoms = pip.city_polygons(PIP_POLYGONS,
                                       radius_deg=PIP_RADIUS_DEG)
        self.qlat = pio.CITY_LAT[:KNN_QUERIES]
        self.qlng = pio.CITY_LNG[:KNN_QUERIES]

        lat, lng = geotag_all(urls)
        lat_r, lng_r = np.deg2rad(lat), np.deg2rad(lng)
        uh = pio.url_hash64(urls)
        # Brute-force exact PIP: every page against every polygon.
        rows, pids = [], []
        for pid, geom in enumerate(self.geoms):
            hit = np.flatnonzero(region.contains_points(geom, lat_r, lng_r))
            rows.append(hit)
            pids.append(np.full(hit.shape[0], pid, dtype=np.int64))
        rows, pids = np.concatenate(rows), np.concatenate(pids)
        self.ref_pip_rows = int(rows.shape[0])
        self.ref_pip = pip_fingerprint(uh[rows], pids)
        # All-pages haversine top-k per query, ties broken by url hash as
        # knn_join does.
        ref = []
        url_list = urls.to_pylist()
        for q in range(KNN_QUERIES):
            d = knn.haversine_km(lat_r, lng_r, np.deg2rad(self.qlat[q]),
                                 np.deg2rad(self.qlng[q]))
            top = np.lexsort((uh, d))[:KNN_K]
            ref.extend((q, url_list[r], float(d[r])) for r in top)
        self.ref_knn = sorted(ref)

    def run_pass(self):
        import ray.data as rd

        from h3ray.io import pages as pio
        from h3ray.pipelines import knn, pip

        pip_ds = pip.pip_join(rd.read_parquet(str(self.pages_dir)),
                              self.geoms, res=PIP_RES, exact=True)
        uh, pids, n = [], [], 0
        for b in pip_ds.iter_batches(batch_format="pyarrow",
                                     batch_size=None):
            uh.append(pio.url_hash64(b["url"]))
            pids.append(b["polygon_id"].to_numpy())
            n += b.num_rows
        pip_fp = pip_fingerprint(
            np.concatenate(uh) if uh else np.empty(0, np.uint64),
            np.concatenate(pids) if pids else np.empty(0, np.int64))
        knn_ds = knn.knn_join(rd.read_parquet(str(self.pages_dir)),
                              self.qlat, self.qlng, res=KNN_RES,
                              k_ring=KNN_K_RING, k_nearest=KNN_K)
        return (n, pip_fp, collect(knn_ds)), [pip_ds, knn_ds]

    def check(self, out):
        n, pip_fp, knn_out = out
        if n != self.ref_pip_rows or pip_fp != self.ref_pip:
            return (f"PIP pairs differ from brute force ({n} vs "
                    f"{self.ref_pip_rows} rows)")
        got = sorted(zip(knn_out["query_id"].to_pylist(),
                         knn_out["url"].to_pylist(),
                         knn_out["distance_km"].to_pylist()))
        if len(got) != len(self.ref_knn):
            return (f"kNN returned {len(got)} rows, "
                    f"expected {len(self.ref_knn)}")
        for (gq, gu, gd), (rq, ru, rd_) in zip(got, self.ref_knn):
            if gq != rq or gu != ru or abs(gd - rd_) > 1e-9:
                return f"kNN row differs for query {rq}: {gu} vs {ru}"
        gd = knn_out["grid_dist"].to_numpy()
        if gd.max(initial=-1) > KNN_K_RING:
            return "kNN grid_dist exceeds k_ring"
        return None


class DriverQueries(Workload):
    """A fixed list of `__ray_entry__.queries()` entries over permuted
    tables: the combiner -> driver_merge and hash-join driver contract."""

    name = "driver_queries"

    def prepare(self, seed, work, toy):
        self.tables_dir = work / "tables"
        tables = [t for ts in QUERIES.values() for t in ts]
        counts = write_permuted(tables, seed, self.tables_dir)
        self.rows = sum(counts[t] for ts in QUERIES.values() for t in ts)
        self.expected = expected_hashes()["queries"]
        import __ray_entry__

        self.fns = {q: __ray_entry__.queries()[q] for q in QUERIES}

    def run_pass(self):
        outs, drained = {}, []
        for q, fn in self.fns.items():
            res = fn(str(self.tables_dir))
            if hasattr(res, "iter_batches"):
                drained.append(res)
                res = collect(res)
            outs[q] = res
        return outs, drained

    def check(self, out):
        bad = [q for q, res in out.items()
               if value_hash(res) != self.expected[q]]
        return f"value_hash differs for {bad}" if bad else None


WORKLOADS = {w.name: w for w in (EncodeCounts, SpatialJoin, DriverQueries)}

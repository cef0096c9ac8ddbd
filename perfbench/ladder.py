"""Per-layer measurements for traced runs.

Every traced run, whatever its workload, measures the same ladder on the
same kind of seeded inputs, so its figures also serve as a drift control
between workloads. Each rung calls a layer's public functions from
outside:

    kernel    io.pages.url_hash64 / geotag, kernels latlng_to_cell r9,
              cell_to_parent, the bare chain (+ np.unique partial counts),
              kernels.region.contains_points          (in process, no Ray)
    stage     ops.stages geotag -> encode -> parent on pa.Table batches,
              + the same np.unique partial counts     (in process, no Ray)
    floor     the same read and map_batches shape as cell_counts (three
              32K-row stages, then a 128K-row stage that reduces each batch
              to one row), with identity stages
    operator  pipelines.geotag.cell_counts through Ray Data, and the time
              of its driver-merge root
    split     the encode_counts cost split (encode / geotag+unique /
              conversions+merge / floor / unattributed) derived from the
              rungs above

plus the layers only some workloads reach: the spatial_join pass (PIP +
kNN, checked against brute force), pipelines.pip probe build and
exact-recheck ratio, pipelines.knn top-k ratio, io.sink checkpoint,
text.dedup near-dedup, the whole curation pipeline and every driver query
(both hash-checked).
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import numpy as np
import pyarrow as pa

import harness
import workloads as wl

LADDER_PAGES, TOY_LADDER_PAGES = 200_000, 10_000
KERNEL_REPS = 3
CHAIN_REPS = 5
RAY_REPS = 3


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _rate(rows: int, fn, reps: int) -> float:
    return rows / harness.median([_timed(fn) for _ in range(reps)])


class Ladder:
    """The per-layer rungs; inputs are built from the seed at construction,
    before any clock starts, and `run` measures every rung once."""

    def __init__(self, seed: int, work: Path, toy: bool):
        from h3ray.io import pages as pio

        self.work = work
        self.rows = TOY_LADDER_PAGES if toy else LADDER_PAGES
        urls = wl.make_urls(seed ^ 0x1ADD, self.rows)
        self.pages_dir = work / "ladder-pages"
        wl.write_pages(urls, self.pages_dir)
        self.url_chunks = list(wl.chunks(urls))
        self.latlng = [pio.geotag(u) for u in self.url_chunks]
        self.tables_dir = work / "ladder-tables"
        tables = ["documents"] + [t for ts in wl.QUERIES.values()
                                  for t in ts]
        wl.write_permuted(tables, seed, self.tables_dir)
        self.expected = wl.expected_hashes()
        self.spatial_join = wl.SpatialJoin()
        self.spatial_join.prepare(seed, work / "ladder-spatial", toy)
        self.failures: list[str] = []

    # ------------------------------------------------------------ rungs
    def kernels(self) -> dict:
        from h3ray.io import pages as pio
        from h3ray.kernels import bits, latlng

        n = self.rows
        cells = [latlng.latlng_to_cell(a, b, 9) for a, b in self.latlng]
        return {
            "io.pages.url_hash64.rows_per_s": _rate(
                n, lambda: [pio.url_hash64(u) for u in self.url_chunks],
                KERNEL_REPS),
            "io.pages.geotag.rows_per_s": _rate(
                n, lambda: [pio.geotag(u) for u in self.url_chunks],
                KERNEL_REPS),
            "kernels.latlng_to_cell_r9.rows_per_s": _rate(
                n, lambda: [latlng.latlng_to_cell(a, b, 9)
                            for a, b in self.latlng], KERNEL_REPS),
            "kernels.cell_to_parent.rows_per_s": _rate(
                n, lambda: [bits.cell_to_parent(c, 3) for c in cells],
                KERNEL_REPS),
        }

    def chains(self) -> dict:
        """The bare kernel chain and the same chain through ops.stages on
        pa.Table batches. Their gap is the Arrow-hop cost, a few percent
        of either, so the two alternate rep by rep to see the same
        machine."""
        from h3ray.io import pages as pio
        from h3ray.kernels import bits, latlng
        from h3ray.ops import stages

        geo, enc = stages.geotag_stage(), stages.encode_stage(9)
        par = stages.parent_stage(3, cell_col="cell_r9")
        batches = [pa.table({"url": u}) for u in self.url_chunks]

        def kernel_chain():
            for u in self.url_chunks:
                lat, lng = pio.geotag(u)
                parent = bits.cell_to_parent(
                    latlng.latlng_to_cell(lat, lng, 9), 3)
                np.unique(parent, return_counts=True)

        def stage_chain():
            for b in batches:
                np.unique(par(enc(geo(b)))["parent_r3"].to_numpy(),
                          return_counts=True)

        walls = [(_timed(kernel_chain), _timed(stage_chain))
                 for _ in range(CHAIN_REPS)]
        self.hop_s = harness.median([s - k for k, s in walls])
        return {
            "kernels.chain.rows_per_s":
                self.rows / harness.median([k for k, _ in walls]),
            "ops.stages.encode_chain.rows_per_s":
                self.rows / harness.median([s for _, s in walls]),
        }

    def ray_rungs(self, tracer: harness.Tracer) -> dict:
        import ray.data as rd

        from h3ray.pipelines import geotag

        def identity(batch: pa.Table) -> pa.Table:
            return batch

        def one_row(batch: pa.Table) -> pa.Table:
            return pa.table({"rows": [batch.num_rows]})

        def floor():
            ds = rd.read_parquet(str(self.pages_dir))
            for _ in range(3):
                ds = ds.map_batches(identity, batch_format="pyarrow",
                                    batch_size=32768)
            ds = ds.map_batches(one_row, batch_format="pyarrow",
                                batch_size=131072)
            n = sum(int(b["rows"].to_numpy().sum())
                    for b in ds.iter_batches(batch_format="pyarrow",
                                             batch_size=None))
            if n != self.rows:
                self.failures.append(f"floor drained {n} of {self.rows}")

        def cell_counts():
            wl.collect(geotag.cell_counts(rd.read_parquet(
                str(self.pages_dir)), res=9, parent_res=3))

        floor()  # first execution of a new chain shape pays its imports
        out = {
            "ray_data.floor.rows_per_s": _rate(self.rows, floor, RAY_REPS),
            "pipelines.geotag.cell_counts.rows_per_s": _rate(
                self.rows, cell_counts, RAY_REPS),
        }
        # One more, traced, for the time of the driver-merge root.
        since = len(tracer.spans)
        with tracer.wrapped():
            cell_counts()
        self.merge_s = tracer.total("ops.reduce.driver_merge.merge_fn",
                                    since=since)
        return out

    def split(self, m: dict) -> dict:
        """Per-row time of cell_counts split into the ROADMAP layers.

        Each share is a measured rung over the operator rung's per-row time:
        encode is latlng_to_cell alone, geotag+unique the rest of the bare
        kernel chain, conversions+merge the stage rung's extra time over
        that chain (the Arrow hops; median of the paired reps) plus the
        driver-merge root, floor the identity chain of the same shape.
        What no rung accounts for (Ray Data's scheduling of the real
        stages beyond the identity floor, less any overlap of driver and
        worker on different CPUs) is reported as the unattributed share,
        not folded into a layer."""
        t_total = 1.0 / m["pipelines.geotag.cell_counts.rows_per_s"]
        t_enc = 1.0 / m["kernels.latlng_to_cell_r9.rows_per_s"]
        t_chain = 1.0 / m["kernels.chain.rows_per_s"]
        t_hops_merge = (self.hop_s + self.merge_s) / self.rows
        t_floor = 1.0 / m["ray_data.floor.rows_per_s"]
        shares = {
            "ladder.encode_share": t_enc / t_total,
            "ladder.geotag_unique_share": (t_chain - t_enc) / t_total,
            "ladder.conversion_merge_share": t_hops_merge / t_total,
            "ladder.floor_share": t_floor / t_total,
        }
        shares["ladder.unattributed_share"] = 1.0 - sum(shares.values())
        return shares

    def spatial(self) -> dict:
        from h3ray.kernels import latlng, region
        from h3ray.pipelines import knn, pip

        geoms = pip.city_polygons(wl.PIP_POLYGONS,
                                  radius_deg=wl.PIP_RADIUS_DEG)
        t0 = time.perf_counter()
        probe = pip.build_probe(geoms, wl.PIP_RES, "candidates")
        build_s = time.perf_counter() - t0

        cand = kept = 0
        check_s = 0.0
        for lat, lng in self.latlng:
            cells = latlng.latlng_to_cell(lat, lng, wl.PIP_RES)
            row, pid = pip.probe_cells(probe, cells)
            lat_r, lng_r = np.deg2rad(lat), np.deg2rad(lng)
            t0 = time.perf_counter()
            for p in np.unique(pid):
                m = pid == p
                kept += int(region.contains_points(
                    geoms[p], lat_r[row[m]], lng_r[row[m]]).sum())
            check_s += time.perf_counter() - t0
            cand += int(row.shape[0])

        from h3ray.io import pages as pio

        index = knn.build_query_index(pio.CITY_LAT[:wl.KNN_QUERIES],
                                      pio.CITY_LNG[:wl.KNN_QUERIES],
                                      wl.KNN_RES, wl.KNN_K_RING)
        per_query = np.zeros(wl.KNN_QUERIES, dtype=np.int64)
        for u in self.url_chunks:
            c = knn.knn_candidates(pa.table({"url": u}), index, wl.KNN_RES)
            per_query += np.bincount(c["query_id"].to_numpy(),
                                     minlength=wl.KNN_QUERIES)
        # The spatial_join pass end to end, checked against brute force;
        # the second pass is reported (the first pays one-time imports).
        for _ in range(2):
            t0 = time.perf_counter()
            out, _ = self.spatial_join.run_pass()
            pass_s = time.perf_counter() - t0
            reason = self.spatial_join.check(out)
            if reason is not None:
                self.failures.append(f"spatial_join pass: {reason}")
        return {
            "pipelines.spatial_join.rows_per_s":
                self.spatial_join.rows / pass_s,
            "pipelines.pip.build_probe_s": build_s,
            "kernels.region.contains_points.rows_per_s":
                cand / check_s if check_s else float("nan"),
            "pipelines.pip.recheck_keep_ratio":
                kept / cand if cand else float("nan"),
            "pipelines.knn.topk_keep_ratio":
                float(np.minimum(per_query, wl.KNN_K).sum()
                      / max(per_query.sum(), 1)),
        }

    def text_and_sink(self) -> dict:
        import ray.data as rd

        from h3ray.io import sink
        from h3ray.pipelines.curation import curation_pipeline
        from h3ray.text import dedup

        docs = rd.read_parquet(str(self.tables_dir / "documents.parquet"),
                               columns=["doc_id", "text", "n_chars"])
        out_dir = self.work / "ladder-ckpt"
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        back = sink.checkpoint_dataset(docs, str(out_dir), "perfbench-ladder",
                                       key_col="doc_id")
        ckpt_s = time.perf_counter() - t0
        files = [f for f in out_dir.rglob("*") if f.is_file()]
        parts = sum(1 for d in out_dir.iterdir()
                    if d.is_dir() and "=" in d.name)
        t0 = time.perf_counter()
        dedup.near_dedup(back, key_col="doc_id").materialize()
        dedup_s = time.perf_counter() - t0
        # The whole curation chain once, hash-checked like a workload pass.
        t0 = time.perf_counter()
        out = wl.collect(curation_pipeline(
            str(self.tables_dir), checkpoint_dir=str(self.work / "curation")))
        curation_s = time.perf_counter() - t0
        if wl.value_hash(out) != self.expected["curation"]:
            self.failures.append("curation: wrong value_hash")
        return {
            "pipelines.curation.s": curation_s,
            "io.sink.checkpoint_s": ckpt_s,
            "io.sink.bytes_written": float(sum(f.stat().st_size
                                               for f in files)),
            "io.sink.partitions": float(parts),
            "text.dedup.near_dedup_s": dedup_s,
        }

    def queries(self) -> dict:
        import __ray_entry__

        out = {}
        fns = __ray_entry__.queries()
        for q in wl.QUERIES:
            t0 = time.perf_counter()
            res = fns[q](str(self.tables_dir))
            if hasattr(res, "iter_batches"):
                res = wl.collect(res)
            out[f"ray_entry.{q}.s"] = time.perf_counter() - t0
            if wl.value_hash(res) != self.expected["queries"][q]:
                self.failures.append(f"ladder query {q}: wrong value_hash")
        return out

    def run(self, tracer: harness.Tracer) -> dict:
        metrics: dict = {}
        for name, rung in (("kernel", self.kernels), ("stage", self.chains),
                           ("ray", lambda: self.ray_rungs(tracer)),
                           ("spatial", self.spatial),
                           ("text_sink", self.text_and_sink),
                           ("queries", self.queries)):
            with tracer.span(f"ladder.{name}"):
                metrics.update(rung())
        metrics.update(self.split(metrics))
        return metrics

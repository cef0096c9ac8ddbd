"""Property tests for the round-5 wave-8 ops: exact graph analytics
(triangle count, degree histogram) and the big-big interval self-join
(interval_followup_count) — each checked against a brute-force local
reference on randomized inputs, under repartitioning."""

import numpy as np
import pyarrow as pa
import pytest


def _edges_ds(src, dst, nparts=5):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "src": src.astype(np.int64),
        "dst": dst.astype(np.int64)})).repartition(nparts)


def _brute_triangles(src, dst, n):
    und = set()
    for s, d in zip(src.tolist(), dst.tolist()):
        if s != d:
            und.add((min(s, d), max(s, d)))
    adj = {i: set() for i in range(n)}
    for u, v in und:
        adj[u].add(v)
        adj[v].add(u)
    t = 0
    for u, v in und:
        t += sum(1 for w in adj[u] & adj[v] if w > v and u < v)
    return t


def test_triangle_count_matches_brute_force(ray_session):
    from h3ray.ops.graph import triangle_count

    rng = np.random.default_rng(5)
    n = 40
    src = rng.integers(0, n, 600)
    dst = rng.integers(0, n, 600)
    out = triangle_count(_edges_ds(src, dst), n)
    assert out["n_triangles"][0].as_py() == _brute_triangles(src, dst, n)


def test_triangle_count_empty_and_partition_invariant(ray_session):
    from h3ray.ops.graph import triangle_count

    # self-loops only -> zero triangles, no crash
    loops = np.arange(10)
    out = triangle_count(_edges_ds(loops, loops), 10)
    assert out["n_triangles"][0].as_py() == 0
    rng = np.random.default_rng(9)
    src = rng.integers(0, 25, 300)
    dst = rng.integers(0, 25, 300)
    a = triangle_count(_edges_ds(src, dst, 1), 25)
    b = triangle_count(_edges_ds(src, dst, 11), 25)
    assert a["n_triangles"][0].as_py() == b["n_triangles"][0].as_py()


def test_degree_histogram_matches_numpy(ray_session):
    from h3ray.ops.graph import degree_histogram

    rng = np.random.default_rng(2)
    n = 30
    src = rng.integers(0, n, 400)
    dst = rng.integers(0, n, 400)
    out = degree_histogram(_edges_ds(src, dst), n)
    und = {(min(s, d), max(s, d))
           for s, d in zip(src.tolist(), dst.tolist()) if s != d}
    deg = np.zeros(n, dtype=np.int64)
    for u, v in und:
        deg[u] += 1
        deg[v] += 1
    deg = deg[deg > 0]
    want = dict(zip(*np.unique(deg, return_counts=True)))
    got = {r["degree"]: r["n_nodes"] for r in out.to_pylist()}
    assert got == {int(k): int(v) for k, v in want.items()}


def _followups_brute(uid, ts, mark, window):
    out = {}
    for i in np.flatnonzero(mark):
        out[i] = int(np.sum((uid == uid[i]) & (ts > ts[i])
                            & (ts <= ts[i] + window)))
    return out


def test_interval_followup_count_matches_brute_force(ray_session):
    import ray.data as rd

    from h3ray.ops.window import interval_followup_count

    rng = np.random.default_rng(17)
    n = 3000
    uid = rng.integers(0, 60, n)
    ts = rng.integers(0, 100_000, n)
    mark = (rng.random(n) < 0.25).astype(np.int64)
    ds = rd.from_arrow(pa.table({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": uid.astype(np.int64),
        "ts_us": ts.astype(np.int64),
        "m": mark})).repartition(9)
    out = interval_followup_count(ds, "user_id", "ts_us", "m",
                                  ["event_id"], window=500)
    got = {r["event_id"]: r["followup_cnt"] for r in out.take_all()}
    want = _followups_brute(uid, ts, mark, 500)
    assert got == {int(k): v for k, v in want.items()}
    assert len(got) == int(mark.sum())


def test_interval_followup_duplicate_ts_and_empty(ray_session):
    import ray.data as rd

    from h3ray.ops.window import interval_followup_count

    # duplicate timestamps: window is EXCLUSIVE at t, inclusive at
    # t+window, so a same-instant row never counts itself or its twins
    t = pa.table({"event_id": np.arange(4, dtype=np.int64),
                  "user_id": np.array([1, 1, 1, 1], dtype=np.int64),
                  "ts_us": np.array([10, 10, 10, 20], dtype=np.int64),
                  "m": np.array([1, 1, 1, 0], dtype=np.int64)})
    out = interval_followup_count(rd.from_arrow(t), "user_id", "ts_us",
                                  "m", ["event_id"], window=15)
    got = {r["event_id"]: r["followup_cnt"] for r in out.take_all()}
    assert got == {0: 1, 1: 1, 2: 1}
    empty = rd.from_arrow(t.slice(0, 0))
    out2 = interval_followup_count(empty, "user_id", "ts_us", "m",
                                   ["event_id"], window=15)
    assert out2.count() == 0


def test_interval_followup_overflow_guard(ray_session, num_buckets):
    num_buckets(1)
    import ray.data as rd

    from h3ray.ops.window import interval_followup_count

    # span ~2^62 x 4 partitions overflows the packed key -> loud refusal
    t = pa.table({"event_id": np.arange(4, dtype=np.int64),
                  "user_id": np.arange(4, dtype=np.int64),
                  "ts_us": np.array([0, 2 ** 62, 1, 2], dtype=np.int64),
                  "m": np.ones(4, dtype=np.int64)})
    with pytest.raises((ValueError, Exception)) as ei:
        interval_followup_count(
            rd.from_arrow(t), "user_id", "ts_us", "m", ["event_id"],
            window=10).count()
    assert "overflow" in str(ei.value)


def test_count_pyramid_matches_per_level_recompute(ray_session):
    """Every pyramid level must equal an independent local recompute:
    encode all pages once, parent-walk per level, unique-count."""
    import numpy as np

    from h3ray.io import pages as pio
    from h3ray.kernels import bits
    from h3ray.pipelines import geotag

    sf = "/root/testdata/sf0.001"
    out = geotag.count_pyramid(pio.pages_from_documents(sf), res=7,
                               levels=(0, 2, 4, 6))
    got = {}
    for r in out.to_pylist():
        got[(r["res"], r["cell"])] = r["num_pages"]

    full = geotag.geotag_cells(pio.pages_from_documents(sf), res=7,
                               parent_res=0) \
        .select_columns(["cell_r7"]).take_all()
    cells = np.array([r["cell_r7"] for r in full]).astype(np.uint64)
    want = {}
    for lv in (0, 2, 4, 6):
        par = bits.cell_to_parent(cells, lv).view(np.int64)
        u, c = np.unique(par, return_counts=True)
        for a, b in zip(u.tolist(), c.tolist()):
            want[(lv, int(a))] = int(b)
    assert got == want and len(want) > 4


def test_h3_cell_quality_matches_local_recompute(ray_session):
    """The geo x text-quality rollup must equal a local whole-corpus
    recompute (encode + regex counts + per-cell sums)."""
    import re
    import sys
    from pathlib import Path

    import numpy as np

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    import __ray_entry__ as entry
    from h3ray.io import pages as pio
    from h3ray.kernels import bits
    from h3ray.pipelines import geotag
    from h3ray.text.analysis import _STOPWORDS

    sf = "/root/testdata/sf0.001"
    out = entry._h3_cell_quality(sf)
    got = {r["cell"]: (r["n_pages"], r["sum_chars"], r["sum_words"],
                       r["sum_stop"]) for r in out.to_pylist()}

    rows = geotag.geotag_cells(pio.pages_from_documents(sf), res=7,
                               parent_res=4,
                               keep_cols=("url", "text")) \
        .select_columns(["parent_r4", "text"]).take_all()
    stop_all = set().union(*_STOPWORDS.values())
    pat = re.compile(r"(?i)\b(?:" + "|".join(sorted(stop_all)) + r")\b")
    want = {}
    for r in rows:
        c = int(np.uint64(r["parent_r4"]).astype(np.uint64)
                .view(np.int64))
        t = r["text"]
        n = want.setdefault(c, [0, 0, 0, 0])
        n[0] += 1
        n[1] += len(t)
        n[2] += len(re.findall(r"\S+", t))
        n[3] += len(pat.findall(t))
    assert got == {k: tuple(v) for k, v in want.items()}
    assert len(got) > 3
    # every cell key must be a valid res-4 H3 index
    cells = np.array(sorted(got), dtype=np.int64).view(np.uint64)
    assert bool(bits.is_valid_cell(cells).all())
    assert (bits.get_resolution(cells) == 4).all()


def _brute_bfs(src, dst, n, seeds):
    from collections import deque

    adj = {}
    for s, d in zip(src.tolist(), dst.tolist()):
        adj.setdefault(s, set()).add(d)
    dist = {s: 0 for s in seeds}
    q = deque(seeds)
    while q:
        u = q.popleft()
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def test_bfs_hops_matches_brute_force(ray_session):
    from h3ray.ops.graph import bfs_hops

    rng = np.random.default_rng(11)
    n = 60
    src = rng.integers(0, n, 150)
    dst = rng.integers(0, n, 150)
    seeds = [0, 7, 41]
    for nparts in (1, 7):
        out = bfs_hops(_edges_ds(src, dst, nparts), n, seeds)
        got = dict(zip(out["site"].to_pylist(), out["hops"].to_pylist()))
        assert got == _brute_bfs(src, dst, n, seeds)


def test_bfs_hops_directed_chain_and_guards(ray_session):
    from h3ray.ops.graph import bfs_hops

    # directed chain 0->1->2->3: hops follow edge direction only
    src = np.array([0, 1, 2])
    dst = np.array([1, 2, 3])
    out = bfs_hops(_edges_ds(src, dst, 2), 4, [0])
    assert out["site"].to_pylist() == [0, 1, 2, 3]
    assert out["hops"].to_pylist() == [0, 1, 2, 3]
    # BFS from the sink reaches only itself (no reverse traversal)
    out = bfs_hops(_edges_ds(src, dst, 2), 4, [3])
    assert out["site"].to_pylist() == [3]
    # seed out of range
    with pytest.raises(ValueError):
        bfs_hops(_edges_ds(src, dst, 1), 4, [4])
    # a chain longer than max_rounds fails loudly, never silently
    n = 9
    src = np.arange(n - 1)
    dst = np.arange(1, n)
    with pytest.raises(RuntimeError):
        bfs_hops(_edges_ds(src, dst, 2), n, [0], max_rounds=3)

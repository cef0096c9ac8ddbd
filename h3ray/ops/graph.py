"""Iterative graph algorithms over edge Datasets.

`pagerank_fixed` runs a fixed number of PageRank power iterations in
EXACT integer fixed-point arithmetic: ranks are int64 micro-units
(`scale`), each edge contributes `rank[src] // outdeg[src]` (floor
division), and the damping update is `(15 * base) // 100 +
(85 * incoming) // 100`. Integer sums are summation-order-free, so the
result is bit-identical under any blocking / shuffle order AND equals a
SQL engine running the same formula — which is what lets an iterative
graph algorithm carry a value-hash oracle (float PageRank cannot:
distributed float summation order diverges in the last bits).

Distribution shape: node count is assumed bounded (site/domain graphs —
10^5-10^7 nodes fit one broadcast int64 vector), edges are the big side
and never leave their blocks: each iteration broadcasts the rank vector
via ray.put, per-batch combiners bincount edge contributions by
destination, and the bounded per-node partials drive a driver-root
merge. For node counts past broadcast range, replace the broadcast with
a (src -> rank) hash join per iteration — same contract, one exchange
per iteration; not implemented here because every caller's node space
is bounded.

Dangling mass (nodes with outdeg 0) is dropped, not redistributed —
both the engine and its SQL mirrors must agree on this convention.

The edges Dataset is consumed once per iteration (Ray lineage
re-executes its plan); checkpoint upstream first if edge derivation is
expensive.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .reduce import combine


def pagerank_fixed(edges_ds, num_nodes: int, *, src_col: str = "src",
                   dst_col: str = "dst", iters: int = 3,
                   scale: int = 10 ** 12) -> pa.Table:
    """Returns pa.Table (site int64, pr_fixed int64) after `iters`
    damped power iterations at 85/100 damping, uniform start."""
    import ray

    def site_sums(prep, col: str) -> np.ndarray:
        """Per-site int64 SUM of the `col` partials `prep` emits, scattered
        into a dense num_nodes vector."""
        t = combine(edges_ds, "site", sums=[col], prep=prep,
                    batch_size=131072,
                    schema=pa.schema([("site", pa.int64()),
                                      (col, pa.int64())]))
        out = np.zeros(num_nodes, dtype=np.int64)
        out[t["site"].to_numpy()] = t[col].to_numpy()
        return out

    def degree_partial(batch: pa.Table) -> pa.Table:
        src = batch[src_col].to_numpy(zero_copy_only=False)
        deg = np.bincount(src, minlength=num_nodes).astype(np.int64)
        nz = np.flatnonzero(deg)
        return pa.table({"site": nz, "outdeg": deg[nz]})

    outdeg = site_sums(degree_partial, "outdeg")
    # avoid div-by-zero for dangling nodes; their rank ships nowhere
    # either way because no edge has them as src
    safe_deg = np.maximum(outdeg, 1)

    base = scale // num_nodes
    rank = np.full(num_nodes, base, dtype=np.int64)
    for _ in range(iters):
        state = ray.put((rank, safe_deg))

        def contrib_partial(batch: pa.Table) -> pa.Table:
            r, deg = ray.get(state)
            src = batch[src_col].to_numpy(zero_copy_only=False)
            dst = batch[dst_col].to_numpy(zero_copy_only=False)
            acc = np.zeros(num_nodes, dtype=np.int64)
            np.add.at(acc, dst, r[src] // deg[src])
            nz = np.flatnonzero(acc)
            return pa.table({"site": nz, "incoming": acc[nz]})

        incoming = site_sums(contrib_partial, "incoming")
        rank = (15 * base) // 100 + (85 * incoming) // 100

    return pa.table({"site": np.arange(num_nodes, dtype=np.int64),
                     "pr_fixed": rank})


def _distinct_undirected(edges_ds, num_nodes: int, src_col: str,
                         dst_col: str) -> np.ndarray:
    """Collapse an edge Dataset to the DISTINCT undirected edge set as a
    sorted packed-int64 array (u * num_nodes + v, u < v). Batch-local
    canonicalize+unique combiners shrink the stream before the one
    driver root; the result is graph-order bounded (same contract as
    pagerank_fixed's rank vector — site/domain graphs, not social
    graphs)."""
    def prep(batch: pa.Table) -> pa.Table:
        s = batch[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table({"e": np.minimum(s, d) * num_nodes
                         + np.maximum(s, d)})

    t = combine(edges_ds, "e", prep=prep, batch_size=131072,
                schema=pa.schema([("e", pa.int64())]))
    return np.sort(t["e"].to_numpy(zero_copy_only=False))


def triangle_count(edges_ds, num_nodes: int, *, src_col: str = "src",
                   dst_col: str = "dst") -> pa.Table:
    """EXACT triangle count of the undirected simple graph underlying an
    edge Dataset (self-loops dropped, direction and multiplicity
    ignored). Returns a 1-row pa.Table (n_triangles int64).

    The distinct undirected edge set is graph-order bounded, so the
    wedge check runs at the driver root: for each pivot node a (lowest
    vertex of the triangle), enumerate pairs (b, c) of its
    higher-numbered neighbors and probe the packed edge set with one
    searchsorted — each triangle a<b<c is found exactly once at pivot
    a. O(sum_a deg_plus(a)^2) wedges, vectorized per pivot. A web-scale
    social graph would partition wedges by pivot; site graphs never
    need it."""
    e = _distinct_undirected(edges_ds, num_nodes, src_col, dst_col)
    u = e // num_nodes
    v = e % num_nodes
    total = 0
    if e.shape[0] == 0:
        return pa.table({"n_triangles": pa.array([0], pa.int64())})
    seg = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
    ends = np.r_[seg[1:], u.shape[0]]
    for s0, s1 in zip(seg, ends):
        nbrs = v[s0:s1]           # already sorted ascending within a
        if nbrs.shape[0] < 2:
            continue
        bi, ci = np.triu_indices(nbrs.shape[0], k=1)
        probe = nbrs[bi] * num_nodes + nbrs[ci]
        pos = np.searchsorted(e, probe)
        pos = np.minimum(pos, e.shape[0] - 1)
        total += int((e[pos] == probe).sum())
    return pa.table({"n_triangles": pa.array([total], pa.int64())})


def degree_histogram(edges_ds, num_nodes: int, *, src_col: str = "src",
                     dst_col: str = "dst") -> pa.Table:
    """Degree distribution of the undirected simple graph: for each
    observed degree, how many nodes have it (degree-0 nodes excluded —
    they never appear in the edge set, mirroring SQL over the edge
    relation). Returns pa.Table (degree int64, n_nodes int64)."""
    e = _distinct_undirected(edges_ds, num_nodes, src_col, dst_col)
    deg = np.bincount(e // num_nodes, minlength=num_nodes) \
        + np.bincount(e % num_nodes, minlength=num_nodes)
    deg = deg[deg > 0]
    dv, cnt = np.unique(deg, return_counts=True)
    return pa.table({"degree": dv.astype(np.int64),
                     "n_nodes": cnt.astype(np.int64)})


def degree_assortativity(edges_ds, num_nodes: int, *,
                         src_col: str = "src",
                         dst_col: str = "dst") -> pa.Table:
    """Newman degree assortativity of the undirected simple graph:
    Pearson correlation of endpoint degrees over the directed edge list
    where each undirected edge appears in BOTH orientations (the
    standard symmetrized formula). With m distinct undirected edges and
    per-edge degrees (du, dv):

        r = (2m * Sjk - Sj^2) / (2m * Sjj - Sj^2)
        Sj  = sum(du + dv)      Sjj = sum(du^2 + dv^2)
        Sjk = 2 * sum(du * dv)

    All sums are exact Python integers (degree <= num_nodes, so the
    int64 bincount partials are exact; the final products can pass
    2^63 on dense graphs, hence arbitrary-precision here), followed by
    ONE IEEE division — bit-identical to a SQL engine running the same
    HUGEINT formula. Returns a 1-row pa.Table (n_edges int64,
    assortativity float64; NULL when the degree variance is zero, e.g.
    a regular graph or m == 0)."""
    e = _distinct_undirected(edges_ds, num_nodes, src_col, dst_col)
    m = int(e.shape[0])
    if m == 0:
        return pa.table({"n_edges": pa.array([0], pa.int64()),
                         "assortativity": pa.array([None], pa.float64())})
    u = e // num_nodes
    v = e % num_nodes
    deg = np.bincount(u, minlength=num_nodes) \
        + np.bincount(v, minlength=num_nodes)
    du = deg[u].astype(np.int64)
    dv = deg[v].astype(np.int64)
    sj = int((du + dv).sum())
    sjj = int((du * du).sum()) + int((dv * dv).sum())
    sjk = 2 * int((du * dv).sum())
    num = 2 * m * sjk - sj * sj
    den = 2 * m * sjj - sj * sj
    r = float(num) / float(den) if den != 0 else None
    return pa.table({"n_edges": pa.array([m], pa.int64()),
                     "assortativity": pa.array([r], pa.float64())})


def bfs_hops(edges_ds, num_nodes: int, seeds, *, src_col: str = "src",
             dst_col: str = "dst", max_rounds: int = 64) -> pa.Table:
    """Multi-source DIRECTED BFS: minimum hop count from any seed to
    every reachable node. Returns pa.Table (site int64, hops int64) for
    reached nodes only (seeds at 0), sorted by site.

    The iterative-frontier-expansion primitive (the third iterative
    graph shape next to pagerank_fixed's power iteration and
    dedup's pointer doubling): per round the CURRENT frontier is
    broadcast as a boolean mask (ray.put once, read per task), each
    edge batch emits the distinct destinations its frontier sources
    reach, and the bounded per-round candidate set merges at a driver
    root — edges never leave their blocks, exactly one pass over the
    edge Dataset per round, rounds = seed eccentricity. Hop counts are
    exact integers, so the result is bit-identical under any blocking
    and carries a recursive-CTE SQL oracle. Same bounded-node contract
    as pagerank_fixed; a social-scale graph would swap the broadcast
    for a frontier-edge hash join per round.

    The edge Dataset's plan re-executes each round (Ray lineage) —
    checkpoint upstream first if edge derivation is expensive.
    """
    import ray

    seeds = np.unique(np.asarray(list(seeds), dtype=np.int64))
    if seeds.size and (seeds.min() < 0 or seeds.max() >= num_nodes):
        raise ValueError("bfs_hops: seed outside [0, num_nodes)")
    INF = np.iinfo(np.int64).max
    dist = np.full(num_nodes, INF, dtype=np.int64)
    dist[seeds] = 0
    frontier = seeds
    schema = pa.schema([("site", pa.int64())])
    for rnd in range(1, max_rounds + 1):
        if frontier.size == 0:
            break
        mask = np.zeros(num_nodes, dtype=bool)
        mask[frontier] = True
        ref = ray.put(mask)

        def reached(batch: pa.Table) -> pa.Table:
            m = ray.get(ref)
            src = batch[src_col].to_numpy(zero_copy_only=False)
            dst = batch[dst_col].to_numpy(zero_copy_only=False)
            return pa.table({"site": dst[m[src]]})

        t = combine(edges_ds, "site", prep=reached, batch_size=131072,
                    schema=schema)
        cand = t["site"].to_numpy(zero_copy_only=False)
        frontier = cand[dist[cand] == INF]
        dist[frontier] = rnd
    else:
        if frontier.size:
            raise RuntimeError(
                f"bfs_hops: frontier alive after {max_rounds} rounds")
    reached = np.flatnonzero(dist != INF).astype(np.int64)
    return pa.table({"site": reached, "hops": dist[reached]})


def neighbor_jaccard_topk(edges_ds, num_nodes: int, *, k: int = 20,
                          src_col: str = "src",
                          dst_col: str = "dst") -> pa.Table:
    """Top-k node pairs by neighborhood Jaccard |N(a) & N(b)| /
    |N(a) | N(b)| over the undirected simple graph — the structural
    node-similarity probe (co-citation / mirror-site detection).
    Common-neighbor counts come from ONE boolean-adjacency matmul at
    the graph-order-bounded root (same boundedness contract as
    pagerank_fixed); counts and degrees are exact ints, jaccard is one
    IEEE division per surviving pair, order is (jaccard DESC, a, b)
    deterministic. Returns pa.Table (site_a, site_b, n_common,
    jaccard)."""
    empty = pa.table({"site_a": pa.array([], pa.int64()),
                      "site_b": pa.array([], pa.int64()),
                      "n_common": pa.array([], pa.int64()),
                      "jaccard": pa.array([], pa.float64())})
    e = _distinct_undirected(edges_ds, num_nodes, src_col, dst_col)
    if e.shape[0] == 0:
        return empty
    u = (e // num_nodes).astype(np.int64)
    v = (e % num_nodes).astype(np.int64)
    adj = np.zeros((num_nodes, num_nodes), np.int32)
    adj[u, v] = 1
    adj[v, u] = 1
    inter = adj @ adj
    deg = adj.sum(axis=1, dtype=np.int64)
    iu, iv = np.triu_indices(num_nodes, k=1)
    cm = inter[iu, iv].astype(np.int64)
    keep = cm > 0
    iu, iv, cm = iu[keep], iv[keep], cm[keep]
    if cm.shape[0] == 0:
        return empty
    union = deg[iu] + deg[iv] - cm
    j = cm.astype(np.float64) / union.astype(np.float64)
    order = np.lexsort((iv, iu, -j))[:k]
    return pa.table({
        "site_a": pa.array(iu[order].astype(np.int64)),
        "site_b": pa.array(iv[order].astype(np.int64)),
        "n_common": pa.array(cm[order]),
        "jaccard": pa.array(j[order])})

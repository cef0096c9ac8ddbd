"""Distributed two-pass percentile selection vs the direct order statistic."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from h3ray.ops.quantile import (grouped_percentile_disc,
                                grouped_percentiles_disc)


def _disc(vals, q):
    """Reference PERCENTILE_DISC: smallest value with cume_dist >= q."""
    s = np.sort(vals)
    return float(s[max(int(np.ceil(q * s.shape[0])), 1) - 1])


@pytest.mark.parametrize("q", [0.5, 0.9, 1.0])
def test_grouped_percentile_matches_reference(ray_session, q):
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 4, 5000)
    # Mixed sign + heavy ties + odd/even group sizes.
    vals = np.round(rng.standard_normal(5000) * 100, 1)
    vals[keys == 3] = 7.25  # an all-equal group (single-bin worst case)
    tbl = pa.table({"k": pa.array([f"g{k}" for k in keys]),
                    "value": pa.array(vals)})
    out = grouped_percentile_disc(rd.from_arrow(tbl).repartition(8),
                                  "k", "value", q=q).to_pandas()
    got = dict(zip(out.k, out.percentile_value))
    for k in range(4):
        assert got[f"g{k}"] == _disc(vals[keys == k], q), f"group {k} q={q}"


def test_grouped_multi_percentile_shares_passes(ray_session):
    rng = np.random.default_rng(11)
    keys = rng.integers(0, 3, 4000)
    vals = np.round(rng.standard_normal(4000) * 50, 2)
    tbl = pa.table({"k": pa.array([f"g{k}" for k in keys]),
                    "value": pa.array(vals)})
    qs = [0.1, 0.25, 0.5, 0.75, 0.99]
    cols = [f"q{int(q * 100)}" for q in qs]
    out = grouped_percentiles_disc(rd.from_arrow(tbl).repartition(8),
                                   "k", "value", qs, cols).to_pandas()
    assert len(out) == 3
    for _, row in out.iterrows():
        gv = vals[keys == int(row.k[1])]
        for q, c in zip(qs, cols):
            assert row[c] == _disc(gv, q), f"{row.k} {c}"


def test_grouped_multi_percentile_validates(ray_session):
    empty = pa.table({"k": pa.array([], type=pa.string()),
                      "value": pa.array([], type=pa.float64())})
    with pytest.raises(ValueError, match="equal-length"):
        grouped_percentiles_disc(rd.from_arrow(empty), "k", "value",
                                 [0.5], ["a", "b"])


def test_grouped_percentile_empty_and_bad_q(ray_session):
    empty = pa.table({"k": pa.array([], type=pa.string()),
                      "value": pa.array([], type=pa.float64())})
    out = grouped_percentile_disc(rd.from_arrow(empty), "k", "value")
    assert len(out.to_pandas()) == 0
    with pytest.raises(ValueError, match="q must be"):
        grouped_percentile_disc(rd.from_arrow(empty), "k", "value", q=0.0)


def test_grouped_percentiles_cont_matches_numpy(ray_session):
    """CONT interpolation == np.percentile(method='linear') per group,
    including all-tied groups, single-row groups, and q crossing bins."""
    from h3ray.ops.quantile import grouped_percentiles_cont

    rng = np.random.default_rng(12)
    keys = rng.integers(0, 4, 4001)
    vals = np.round(rng.standard_normal(4001) * 100, 1)
    vals[keys == 3] = -3.5                      # all-equal group
    keys[0] = 9                                 # a single-row group
    tbl = pa.table({"k": pa.array([f"g{k}" for k in keys]),
                    "v": pa.array(vals)})
    out = grouped_percentiles_cont(
        rd.from_arrow(tbl), "k", "v", [0.5, 0.9],
        ["p50", "p90"]).to_pandas().set_index("k")
    for g in np.unique(keys):
        gv = vals[keys == g]
        row = out.loc[f"g{g}"]
        # Same formula and op order as np linear interpolation.
        for q, col in ((0.5, "p50"), (0.9, "p90")):
            p = q * (gv.shape[0] - 1)
            s = np.sort(gv)
            lo, hi = s[int(np.floor(p))], s[int(np.ceil(p))]
            assert row[col] == lo + (p - np.floor(p)) * (hi - lo)


def test_distributed_path_many_keys_matches_reference(ray_session,
                                                     monkeypatch):
    """~10^5 distinct keys through the bucketed segmented-selection path
    (reached by lowering the driver histogram budget): DISC and CONT must
    match the direct per-key order statistic (spot groups)."""
    import h3ray.ops.quantile as qmod
    from h3ray.ops.quantile import grouped_percentiles_cont

    monkeypatch.setattr(qmod, "DRIVER_HIST_MAX_ROWS", 1000)

    rng = np.random.default_rng(23)
    n_keys = 100_000
    keys = rng.integers(0, n_keys, 400_000).astype(np.int64)
    vals = np.round(rng.standard_normal(400_000) * 100, 1)
    tbl = pa.table({"k": pa.array(keys), "value": pa.array(vals)})
    ds = rd.from_arrow(tbl).repartition(8)

    disc = grouped_percentiles_disc(ds, "k", "value", [0.5, 0.9],
                                    ["p50", "p90"]).to_pandas()
    assert len(disc) == len(np.unique(keys))
    spot = rng.choice(np.unique(keys), 200, replace=False)
    d = disc.set_index("k")
    for k in spot:
        grp = vals[keys == k]
        assert d.loc[k, "p50"] == _disc(grp, 0.5), f"key {k} p50"
        assert d.loc[k, "p90"] == _disc(grp, 0.9), f"key {k} p90"

    cont = grouped_percentiles_cont(ds, "k", "value", [0.5],
                                    ["med"]).to_pandas()
    c = cont.set_index("k")
    for k in spot:
        grp = np.sort(vals[keys == k]).astype(np.float64)
        p = 0.5 * (grp.shape[0] - 1)
        lo, hi = grp[int(np.floor(p))], grp[int(np.ceil(p))]
        exp = lo + (p - np.floor(p)) * (hi - lo)
        assert c.loc[k, "med"] == exp, f"key {k} median"


def test_auto_switches_to_distributed_past_budget(ray_session, monkeypatch):
    """auto must produce identical results on both sides of the histogram
    row budget (tiny budget forces the distributed fallback)."""
    import h3ray.ops.quantile as qmod

    rng = np.random.default_rng(7)
    keys = rng.integers(0, 50, 20_000).astype(np.int64)
    vals = np.round(rng.standard_normal(20_000) * 10, 2)
    tbl = pa.table({"k": pa.array(keys), "value": pa.array(vals)})

    def run():
        return grouped_percentiles_disc(
            rd.from_arrow(tbl).repartition(6), "k", "value",
            [0.5], ["p50"]).to_pandas() \
            .sort_values("k").reset_index(drop=True)

    on_driver = run()
    monkeypatch.setattr(qmod, "DRIVER_HIST_MAX_ROWS", 100)
    forced = run()
    assert on_driver.k.tolist() == forced.k.tolist()
    assert on_driver.p50.tolist() == forced.p50.tolist()

"""Rolling window operator vs pandas groupby-rolling (ties, bucketing)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from h3ray.pipelines.relational import events_rolling_by_user


def test_rolling_window_matches_pandas(ray_session, tmp_path, num_buckets):
    num_buckets(4)
    rng = np.random.default_rng(5)
    n = 4000
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        # Few users + coarse timestamps force duplicate (user, ts) ties so
        # the event_id tie-break is actually exercised.
        "user_id": rng.integers(0, 7, n).astype(np.int64),
        "ts": pd.to_datetime(rng.integers(0, 500, n), unit="s"),
        "value": rng.normal(0, 10, n),
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   tmp_path / "events.parquet")
    out = events_rolling_by_user(str(tmp_path), window=3).to_pandas()
    assert len(out) == n

    df["vm"] = np.floor(df["value"] * 1_000_000 + 0.5).astype(np.int64)
    df = df.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
    df["row_idx"] = df.groupby("user_id").cumcount() + 1
    df["roll"] = df.groupby("user_id")["vm"] \
        .rolling(3, min_periods=1).sum().reset_index(level=0, drop=True) \
        .astype(np.int64)
    exp = df.set_index("event_id")
    got = out.set_index("event_id")
    assert (got["row_idx"] == exp["row_idx"].reindex(got.index)).all()
    assert (got["roll_value_micro"] == exp["roll"].reindex(got.index)).all()

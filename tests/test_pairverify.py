"""Dataset-native pair/payload routing (ops.pairverify)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from h3ray.ops.pairverify import route_pairs_and_payload, split_pair_group


def _payload(n=20):
    return pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                     "text": pa.array([f"payload-{i}" for i in range(n)])})


def test_route_colocates_every_pair_with_both_payloads(ray_session,
                                                       num_buckets):
    num_buckets(4)
    pairs = pa.table({"key_a": pa.array([0, 2, 2, 17], type=pa.int64()),
                      "key_b": pa.array([5, 9, 11, 19], type=pa.int64())})
    routed, n = route_pairs_and_payload(
        rd.from_arrow(_payload()), rd.from_arrow(pairs), "doc_id", ["text"])
    assert n == 4

    seen = []

    def verify(group: pa.Table) -> pa.Table:
        gk, payloads, a_ids, b_ids, ia, ib, _ = split_pair_group(
            group, "doc_id", ["text"])
        texts = payloads["text"].to_pylist()
        # Every pair's endpoints resolve to their own payload rows.
        for j in range(a_ids.shape[0]):
            assert texts[ia[j]] == f"payload-{a_ids[j]}"
            assert texts[ib[j]] == f"payload-{b_ids[j]}"
        return pa.table({"key_a": pa.array(a_ids),
                         "key_b": pa.array(b_ids)})

    out = routed.groupby("_vbucket").map_groups(
        verify, batch_format="pyarrow").to_pandas()
    seen = set(zip(out.key_a, out.key_b))
    assert seen == {(0, 5), (2, 9), (2, 11), (17, 19)}


def test_route_empty_pairs_short_circuits(ray_session):
    empty = pa.table({"key_a": pa.array([], type=pa.int64()),
                      "key_b": pa.array([], type=pa.int64())})
    routed, n = route_pairs_and_payload(
        rd.from_arrow(_payload()), rd.from_arrow(empty), "doc_id", ["text"])
    assert routed is None and n == 0


def test_split_raises_on_missing_payload_key(ray_session, num_buckets):
    num_buckets(2)
    pairs = pa.table({"key_a": pa.array([0], type=pa.int64()),
                      "key_b": pa.array([99], type=pa.int64())})  # absent
    routed, n = route_pairs_and_payload(
        rd.from_arrow(_payload()), rd.from_arrow(pairs), "doc_id", ["text"])
    assert n == 1

    def verify(group: pa.Table) -> pa.Table:
        split_pair_group(group, "doc_id", ["text"])
        return pa.table({"ok": pa.array([1])})

    with pytest.raises(Exception, match="absent from the payload"):
        routed.groupby("_vbucket").map_groups(
            verify, batch_format="pyarrow").to_pandas()

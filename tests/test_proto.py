"""Wire format: varints and the GraphFeature codec (property-based
round trips — this is what 'flattened to protobuf strings' must guarantee)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.subgraph import GraphFeature
from repro.proto import (
    CodecError,
    decode_graph_feature,
    decode_sample,
    decode_signed,
    decode_unsigned,
    encode_graph_feature,
    encode_sample,
    encode_signed,
    encode_unsigned,
)


class TestVarint:
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_unsigned_round_trip(self, value):
        decoded, offset = decode_unsigned(encode_unsigned(value))
        assert decoded == value
        assert offset == len(encode_unsigned(value))

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_signed_round_trip(self, value):
        decoded, _ = decode_signed(encode_signed(value))
        assert decoded == value

    def test_small_values_one_byte(self):
        for v in range(128):
            assert len(encode_unsigned(v)) == 1

    def test_zigzag_keeps_small_negatives_small(self):
        assert len(encode_signed(-1)) == 1
        assert len(encode_signed(-64)) == 1

    def test_negative_unsigned_rejected(self):
        with pytest.raises(ValueError):
            encode_unsigned(-1)

    def test_truncated_varint(self):
        with pytest.raises(ValueError):
            decode_unsigned(b"\x80")

    def test_overlong_varint_rejected(self):
        with pytest.raises(ValueError):
            decode_unsigned(b"\x80" * 11)


def make_gf(rng, n=6, m=10, fn=4, fe=2, with_edge_feat=True):
    node_ids = np.sort(rng.choice(10_000, size=n, replace=False)).astype(np.int64)
    x = rng.standard_normal((n, fn)).astype(np.float32)
    hops = rng.integers(0, 3, n)
    target = node_ids[int(np.flatnonzero(hops == hops.min())[0])]
    hops[node_ids == target] = 0
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    ef = rng.standard_normal((m, fe)).astype(np.float32) if with_edge_feat else None
    w = rng.uniform(0.1, 2.0, m).astype(np.float32)
    return GraphFeature([target], node_ids, x, hops, src, dst, ef, w)


class TestGraphFeatureCodec:
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 12),
        m=st.integers(0, 25),
        with_ef=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, seed, n, m, with_ef):
        rng = np.random.default_rng(seed)
        gf = make_gf(rng, n=n, m=m, with_edge_feat=with_ef)
        decoded, _ = decode_graph_feature(encode_graph_feature(gf))
        np.testing.assert_array_equal(decoded.node_ids, gf.node_ids)
        np.testing.assert_array_equal(decoded.target_ids, gf.target_ids)
        np.testing.assert_array_equal(decoded.hops, gf.hops)
        np.testing.assert_array_equal(decoded.edge_src, gf.edge_src)
        np.testing.assert_array_equal(decoded.edge_dst, gf.edge_dst)
        np.testing.assert_allclose(decoded.x, gf.x)
        np.testing.assert_allclose(decoded.edge_weight, gf.edge_weight)
        if with_ef:
            np.testing.assert_allclose(decoded.edge_feat, gf.edge_feat)
        else:
            assert decoded.edge_feat is None

    def test_bad_magic(self, rng):
        data = bytearray(encode_graph_feature(make_gf(rng)))
        data[0] = ord("X")
        with pytest.raises(CodecError):
            decode_graph_feature(bytes(data))

    def test_truncation_detected(self, rng):
        data = encode_graph_feature(make_gf(rng))
        with pytest.raises((CodecError, ValueError)):
            decode_graph_feature(data[: len(data) // 2])


class TestDecoderRobustness:
    @given(st.binary(max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_bytes_never_crash_unexpectedly(self, blob):
        """Fuzz: hostile/corrupt input must raise a codec-family error,
        never segfault-style surprises or silent success on garbage."""
        try:
            decode_graph_feature(blob)
        except (CodecError, ValueError):
            pass

    @given(st.integers(0, 2**16), st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_random_truncations_detected(self, seed, cut):
        rng = np.random.default_rng(seed)
        data = encode_graph_feature(make_gf(rng))
        cut = min(cut, len(data) - 1)
        try:
            gf, offset = decode_graph_feature(data[:-cut])
            # decoding may only "succeed" if the truncation hit trailing
            # bytes beyond what the record needed — then offset is exact
            assert offset <= len(data) - cut
        except (CodecError, ValueError):
            pass


class TestSampleCodec:
    def test_int_label(self, rng):
        gf = make_gf(rng)
        tid, label, decoded = decode_sample(encode_sample(42, 3, gf))
        assert (tid, label) == (42, 3)
        np.testing.assert_array_equal(decoded.node_ids, gf.node_ids)

    def test_vector_label(self, rng):
        gf = make_gf(rng)
        vec = np.array([0.0, 1.0, 1.0], dtype=np.float32)
        _, label, _ = decode_sample(encode_sample(-7, vec, gf))
        np.testing.assert_allclose(label, vec)

    def test_none_label(self, rng):
        _, label, _ = decode_sample(encode_sample(0, None, make_gf(rng)))
        assert label is None

    def test_trailing_bytes_rejected(self, rng):
        data = encode_sample(1, None, make_gf(rng)) + b"junk"
        with pytest.raises(CodecError):
            decode_sample(data)

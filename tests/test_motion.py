import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lightwake import RawSample, manhattan_delta, normalize
from lightwake.errors import DegenerateSample
from lightwake.motion import MAX_DELTA, block_deltas, raw_samples, sample_block


def unit(x, y, z):
    return normalize(RawSample(0, x, y, z))


class TestEuclideanNorm:
    """normalize divides by the Euclidean length measured from the origin."""

    def test_zero_vector(self):
        with pytest.raises(DegenerateSample):
            unit(0.0, 0.0, 0.0)

    def test_3_4_5(self):
        nx, ny, nz = unit(3.0, 4.0, 0.0)
        assert (3.0 / nx, 4.0 / ny, nz) == (5.0, 5.0, 0.0)

    def test_symmetric_ones(self):
        assert unit(1.0, 1.0, 1.0) == (1.0 / math.sqrt(3.0),) * 3


class TestNormalize:
    def test_already_unit(self):
        assert unit(0.0, 0.0, 1.0) == (0.0, 0.0, 1.0)

    def test_3_4_5(self):
        assert unit(3.0, 4.0, 0.0) == (0.6, 0.8, 0.0)

    def test_symmetric_pair(self):
        nx, ny, nz = unit(2.0, -2.0, 0.0)
        assert nx == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert ny == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-12)
        assert nz == 0.0

    def test_degenerate_below_guard(self):
        with pytest.raises(DegenerateSample):
            unit(1e-12, 0.0, 0.0)
        with pytest.raises(DegenerateSample):
            unit(3e-10, 3e-10, 3e-10)

    def test_non_finite_length_is_degenerate(self):
        for vector in ((math.nan, 0.0, 1.0), (0.0, -math.inf, 0.0), (1e200, 0.0, 0.0)):
            with pytest.raises(DegenerateSample):
                unit(*vector)

    def test_just_above_guard_is_fine(self):
        assert unit(2e-9, 0.0, 0.0)[0] == 1.0


class TestManhattanDelta:
    def test_identical_samples(self):
        assert manhattan_delta((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)) == 0.0

    def test_orthogonal_axes(self):
        assert manhattan_delta((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)) == 2.0

    def test_antipodal_attains_bound(self):
        a = 1.0 / math.sqrt(3.0)
        d = manhattan_delta((a, a, a), (-a, -a, -a))
        assert d == pytest.approx(MAX_DELTA, abs=1e-12)
        assert d == pytest.approx(3.4641016, abs=1e-7)


def random_raw(rng, n):
    comps = rng.uniform(-5.0, 5.0, size=(n, 3))
    return [RawSample(i, *row) for i, row in enumerate(comps.tolist())]


class TestProperties:
    def test_unit_norm_and_component_range(self):
        rng = np.random.default_rng(11)
        for s in random_raw(rng, 2000):
            n = normalize(s)
            assert abs(math.sqrt(sum(c * c for c in n)) - 1.0) <= 1e-9
            assert all(-1.0 <= c <= 1.0 for c in n)

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        for s in random_raw(rng, 500):
            base = normalize(s)
            for k in (1e-3, 1.0, 1e3):
                scaled = unit(k * s.ax, k * s.ay, k * s.az)
                assert all(abs(c - b) <= 1e-9 for c, b in zip(scaled, base))

    def test_delta_bounds_on_random_unit_pairs(self):
        rng = np.random.default_rng(13)
        vecs = rng.normal(size=(2000, 3))
        units = [unit(*v) for v in vecs.tolist()]
        for a, b in zip(units, units[1:]):
            assert 0.0 <= manhattan_delta(a, b) <= MAX_DELTA + 1e-9

    def test_value_symmetry_and_zero_iff_equal(self):
        rng = np.random.default_rng(14)
        vecs = rng.normal(size=(600, 3))
        units = [unit(*v) for v in vecs.tolist()]
        for a, b in zip(units, units[1:]):
            forward = manhattan_delta(a, b)
            assert forward == manhattan_delta(b, a)
            assert forward > 0.0  # random pairs never coincide
        assert manhattan_delta(units[0], units[0]) == 0.0

    def test_triangle_inequality_on_consecutive_triples(self):
        rng = np.random.default_rng(15)
        vecs = rng.normal(size=(600, 3))
        units = [unit(*v) for v in vecs.tolist()]
        for a, b, c in zip(units, units[1:], units[2:]):
            ab = manhattan_delta(a, b)
            bc = manhattan_delta(b, c)
            ac = manhattan_delta(a, c)
            assert ac <= ab + bc + 1e-12

    def test_delta_invariant_under_per_sample_rescaling(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            raw = random_raw(rng, 2)
            a, b = normalize(raw[0]), normalize(raw[1])
            ka, kb = rng.uniform(0.1, 10.0, size=2).tolist()
            a2 = unit(ka * raw[0].ax, ka * raw[0].ay, ka * raw[0].az)
            b2 = unit(kb * raw[1].ax, kb * raw[1].ay, kb * raw[1].az)
            assert manhattan_delta(a, b) == pytest.approx(manhattan_delta(a2, b2), abs=1e-9)


class TestRawSamples:
    """Samples built column by column are the samples RawSample builds."""

    def test_indistinguishable_from_constructed(self):
        columns = ([0, 1, 2**40], [0.1, -0.0, 5.0], [-5.0, 1e-300, 0.5], [1.0, 2.5, -1.25])
        built, constructed = raw_samples(*columns), list(map(RawSample, *columns))
        assert built == constructed
        for b, c in zip(built, constructed):
            assert type(b) is RawSample
            assert (hash(b), repr(b)) == (hash(c), repr(c))
            assert (b.t_ns, b.ax, b.ay, b.az) == (c.t_ns, c.ax, c.ay, c.az)
            with pytest.raises(dataclasses.FrozenInstanceError):
                b.ax = 0.0
            assert not hasattr(b, "__dict__")
        assert raw_samples([], [], [], []) == []


# Components whose squares overflow (1e200) or underflow (subnormals), that
# make a length below the guard (1e-12) or not finite, and signed zeros.
_COMPONENTS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e200, 1e-12, 5e-324, -2.5e-310,
                     -0.0, 0.0, 1.0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-2.0, 2.0),
)
_TRIPLES = st.tuples(_COMPONENTS, _COMPONENTS, _COMPONENTS)


class TestBlockDeltas:
    """block_deltas is normalize and manhattan_delta over a run, bit for bit."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(start=st.one_of(st.none(), _TRIPLES), triples=st.lists(_TRIPLES, max_size=12))
    def test_same_mask_and_bits_as_the_scalar_functions(self, start, triples):
        try:
            prev = None if start is None else normalize(RawSample(0, *start))
        except DegenerateSample:
            prev = None
        samples = [RawSample(i, *xyz) for i, xyz in enumerate(triples)]
        degenerate, deltas, last = [], [], prev
        for sample in samples:
            try:
                unit_vector = normalize(sample)
            except DegenerateSample:
                degenerate.append(True)
                deltas.append(math.nan)
                continue
            degenerate.append(False)
            deltas.append(math.nan if last is None else manhattan_delta(last, unit_vector))
            last = unit_vector

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_degenerate, got_deltas, got_last = block_deltas(prev, sample_block(samples)[1])
        assert got_degenerate.tolist() == degenerate
        assert [v.hex() for v in got_deltas.tolist()] == [v.hex() for v in deltas]
        if last is None:
            assert got_last is None
        else:
            assert [(type(v), v.hex()) for v in got_last] == [(float, v.hex()) for v in last]


# Anything a component may be that float() reads as a number: floats of every class (NaN with
# its payload, infinities, signed zeros, subnormals), ints, bools and numpy scalars.
_NUMBERS = st.one_of(
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310,
                     True, False, 2**1000, np.float64(-0.0), np.float32(math.nan)]),
    st.floats(),
    st.integers(-2**1000, 2**1000),
    st.floats(width=32).map(np.float32),
    st.floats(width=16).map(np.float16),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
)


def _assert_block_of(samples):
    """sample_block(samples) is their times and each component's float, bit for bit, in a
    C-contiguous, writable 3 x n float64 array that owns its data."""
    times, xyz = sample_block(samples)
    assert times == [s.t_ns for s in samples] and all(type(t) is int for t in times)
    assert (xyz.dtype, xyz.shape) == (np.float64, (3, len(samples)))
    assert xyz.flags.c_contiguous and xyz.flags.writeable and xyz.flags.owndata
    want = np.array([[float(getattr(s, axis)) for s in samples] for axis in ("ax", "ay", "az")], np.float64)
    assert xyz.view(np.int64).tolist() == want.view(np.int64).tolist()


class TestSampleBlock:
    """sample_block reads each component as float() does, into a fresh float64 array."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.lists(st.tuples(st.integers(0, 2**70), _NUMBERS, _NUMBERS, _NUMBERS), max_size=12))
    def test_columns_are_the_components_floats(self, rows):
        _assert_block_of([RawSample(*row) for row in rows])

    @pytest.mark.parametrize("n", [0, 1, 4096])
    def test_any_bit_pattern_at_block_sizes(self, n):
        """Every float64 bit pattern, NaN payloads too, with an int, a bool or a numpy scalar
        in every fifth component."""
        bits = np.random.default_rng(n).integers(-2**63, 2**63, 3 * n, dtype=np.int64)
        components = bits.view(np.float64).tolist()
        for i in range(0, 3 * n, 5):
            components[i] = (7, True, np.float32(-0.0), np.int64(-3), np.float16(6e-8))[i // 5 % 5]
        columns = [components[k * n:(k + 1) * n] for k in range(3)]
        _assert_block_of(raw_samples(list(range(0, 250 * n, 250)), *columns))

    @pytest.mark.parametrize("component", [None, "1.0", object(), 2**1024])
    def test_a_component_that_is_not_a_number_is_refused(self, component):
        samples = [RawSample(0, 0.0, 0.0, 1.0), RawSample(1, 0.0, component, 1.0)]
        with pytest.raises(TypeError, match="^a sample component is not a real number in float's range$"):
            sample_block(samples)

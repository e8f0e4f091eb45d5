import math

import numpy as np
import pytest

from lightwake import RawSample, manhattan_delta, normalize
from lightwake.errors import DegenerateSample, OrderViolation
from lightwake.motion import MAX_DELTA, NormalizedSample, euclidean_norm


def unit(t_ns, x, y, z):
    return normalize(RawSample(t_ns, x, y, z))


class TestEuclideanNorm:
    def test_zero_vector(self):
        assert euclidean_norm(0.0, 0.0, 0.0) == 0.0

    def test_3_4_5(self):
        assert euclidean_norm(3.0, 4.0, 0.0) == 5.0

    def test_symmetric_ones(self):
        assert euclidean_norm(1.0, 1.0, 1.0) == math.sqrt(3.0)


class TestNormalize:
    def test_already_unit(self):
        n = normalize(RawSample(5, 0.0, 0.0, 1.0))
        assert (n.nx, n.ny, n.nz) == (0.0, 0.0, 1.0)
        assert n.t_ns == 5

    def test_3_4_5(self):
        n = normalize(RawSample(0, 3.0, 4.0, 0.0))
        assert (n.nx, n.ny, n.nz) == (0.6, 0.8, 0.0)

    def test_symmetric_pair(self):
        n = normalize(RawSample(0, 2.0, -2.0, 0.0))
        assert n.nx == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert n.ny == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-12)
        assert n.nz == 0.0

    def test_degenerate_below_guard(self):
        with pytest.raises(DegenerateSample):
            normalize(RawSample(0, 1e-12, 0.0, 0.0))
        with pytest.raises(DegenerateSample):
            normalize(RawSample(0, 3e-10, 3e-10, 3e-10))

    def test_just_above_guard_is_fine(self):
        n = normalize(RawSample(0, 2e-9, 0.0, 0.0))
        assert n.nx == 1.0


class TestManhattanDelta:
    def test_identical_samples(self):
        a = NormalizedSample(0, 0.0, 0.0, 1.0)
        b = NormalizedSample(1, 0.0, 0.0, 1.0)
        d = manhattan_delta(a, b)
        assert d.value == 0.0
        assert d.t_ns == 1

    def test_orthogonal_axes(self):
        d = manhattan_delta(NormalizedSample(0, 1.0, 0.0, 0.0),
                            NormalizedSample(7, 0.0, 1.0, 0.0))
        assert d.value == 2.0
        assert d.t_ns == 7

    def test_antipodal_attains_bound(self):
        a = 1.0 / math.sqrt(3.0)
        d = manhattan_delta(NormalizedSample(0, a, a, a),
                            NormalizedSample(1, -a, -a, -a))
        assert d.value == pytest.approx(MAX_DELTA, abs=1e-12)
        assert d.value == pytest.approx(3.4641016, abs=1e-7)

    def test_order_violation(self):
        a = NormalizedSample(5, 1.0, 0.0, 0.0)
        b = NormalizedSample(5, 0.0, 1.0, 0.0)
        with pytest.raises(OrderViolation):
            manhattan_delta(a, b)
        with pytest.raises(OrderViolation):
            manhattan_delta(NormalizedSample(6, 1.0, 0.0, 0.0), a)


def random_raw(rng, n):
    comps = rng.uniform(-5.0, 5.0, size=(n, 3))
    return [RawSample(i, *row) for i, row in enumerate(comps.tolist())]


class TestProperties:
    def test_unit_norm_and_component_range(self):
        rng = np.random.default_rng(11)
        for s in random_raw(rng, 2000):
            n = normalize(s)
            length = math.sqrt(n.nx**2 + n.ny**2 + n.nz**2)
            assert abs(length - 1.0) <= 1e-9
            assert -1.0 <= n.nx <= 1.0
            assert -1.0 <= n.ny <= 1.0
            assert -1.0 <= n.nz <= 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        for s in random_raw(rng, 500):
            base = normalize(s)
            for k in (1e-3, 1.0, 1e3):
                scaled = normalize(RawSample(s.t_ns, k * s.ax, k * s.ay, k * s.az))
                assert abs(scaled.nx - base.nx) <= 1e-9
                assert abs(scaled.ny - base.ny) <= 1e-9
                assert abs(scaled.nz - base.nz) <= 1e-9

    def test_delta_bounds_on_random_unit_pairs(self):
        rng = np.random.default_rng(13)
        vecs = rng.normal(size=(2000, 3))
        units = [unit(i, *v) for i, v in enumerate(vecs.tolist())]
        for a, b in zip(units, units[1:]):
            d = manhattan_delta(a, b)
            assert 0.0 <= d.value <= MAX_DELTA + 1e-9

    def test_value_symmetry_and_zero_iff_equal(self):
        rng = np.random.default_rng(14)
        vecs = rng.normal(size=(600, 3))
        units = [unit(i, *v) for i, v in enumerate(vecs.tolist())]
        for a, b in zip(units, units[1:]):
            forward = manhattan_delta(a, b).value
            swapped = manhattan_delta(
                NormalizedSample(a.t_ns, b.nx, b.ny, b.nz),
                NormalizedSample(b.t_ns, a.nx, a.ny, a.nz),
            ).value
            assert forward == swapped
            assert forward > 0.0  # random pairs never coincide
        same = manhattan_delta(units[0],
                               NormalizedSample(99, units[0].nx, units[0].ny, units[0].nz))
        assert same.value == 0.0

    def test_triangle_inequality_on_consecutive_triples(self):
        rng = np.random.default_rng(15)
        vecs = rng.normal(size=(600, 3))
        units = [unit(i, *v) for i, v in enumerate(vecs.tolist())]
        for a, b, c in zip(units, units[1:], units[2:]):
            ab = manhattan_delta(a, b).value
            bc = manhattan_delta(b, c).value
            ac = manhattan_delta(a, c).value
            assert ac <= ab + bc + 1e-12

    def test_delta_invariant_under_per_sample_rescaling(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            raw = random_raw(rng, 2)
            a, b = normalize(raw[0]), normalize(raw[1])
            ka, kb = rng.uniform(0.1, 10.0, size=2).tolist()
            a2 = normalize(RawSample(0, ka * raw[0].ax, ka * raw[0].ay, ka * raw[0].az))
            b2 = normalize(RawSample(1, kb * raw[1].ax, kb * raw[1].ay, kb * raw[1].az))
            assert manhattan_delta(a, b).value == pytest.approx(
                manhattan_delta(a2, b2).value, abs=1e-9)

import itertools

import numpy as np
import pytest

from smallmass.errors import (
    CountMismatch,
    DimensionMismatch,
    NonFinite,
    SizeLimitExceeded,
    ValidationError,
)
from smallmass.measures import (
    EmpiricalMeasure,
    second_moment,
    wasserstein2_1d,
    wasserstein2_assignment,
)


def w2_bruteforce(xs: np.ndarray, ys: np.ndarray) -> float:
    """Exact W2 by enumerating all pairings; oracle for small N."""
    n = xs.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(np.sum((xs[i] - ys[p]) ** 2) for i, p in enumerate(perm))
        best = min(best, cost)
    return float(np.sqrt(best / n))


class TestEmpiricalMeasure:
    def test_wraps_1d_samples(self):
        mu = EmpiricalMeasure(np.array([1.0, -1.0]))
        assert mu.samples.shape == (2, 1)
        assert mu.dim == 1 and mu.size == 2

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            EmpiricalMeasure(np.zeros((0, 2)))
        with pytest.raises(ValidationError):
            EmpiricalMeasure(np.zeros((3, 0)))

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFinite):
            EmpiricalMeasure(np.array([[np.inf, 0.0]]))


class TestSecondMoment:
    def test_point_at_origin(self):
        assert second_moment(EmpiricalMeasure(np.array([0.0]))) == 0.0

    def test_single_point(self):
        assert second_moment(EmpiricalMeasure(np.array([[3.0, 4.0]]))) == 25.0

    def test_two_points(self):
        assert second_moment(EmpiricalMeasure(np.array([1.0, -1.0]))) == 1.0


class TestWasserstein1d:
    def test_identical_lists(self):
        mu = EmpiricalMeasure(np.array([0.3, -1.2, 4.0]))
        assert wasserstein2_1d(mu, mu) == 0.0

    def test_single_atoms(self):
        mu = EmpiricalMeasure(np.array([0.0]))
        nu = EmpiricalMeasure(np.array([1.0]))
        assert wasserstein2_1d(mu, nu) == pytest.approx(1.0)

    def test_sorted_matching_is_optimal(self):
        mu = EmpiricalMeasure(np.array([0.0, 2.0]))
        nu = EmpiricalMeasure(np.array([1.0, 3.0]))
        # exact-assignment oracle over both pairings confirms the value 1
        assert w2_bruteforce(mu.samples, nu.samples) == pytest.approx(1.0)
        assert wasserstein2_1d(mu, nu) == pytest.approx(1.0, abs=1e-14)

    def test_dimension_guard(self):
        mu = EmpiricalMeasure(np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            wasserstein2_1d(mu, mu)

    def test_count_guard(self):
        mu = EmpiricalMeasure(np.array([0.0, 1.0]))
        nu = EmpiricalMeasure(np.array([0.0]))
        with pytest.raises(CountMismatch):
            wasserstein2_1d(mu, nu)


class TestWassersteinAssignment:
    def test_matches_1d_path(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            xs = rng.normal(size=12)
            ys = rng.normal(size=12)
            mu, nu = EmpiricalMeasure(xs), EmpiricalMeasure(ys)
            assert wasserstein2_assignment(mu, nu) == pytest.approx(
                wasserstein2_1d(mu, nu), abs=1e-12
            )

    def test_two_atoms(self):
        mu = EmpiricalMeasure(np.array([[0.0, 0.0]]))
        nu = EmpiricalMeasure(np.array([[3.0, 4.0]]))
        assert wasserstein2_assignment(mu, nu) == pytest.approx(5.0)

    def test_matches_permutation_bruteforce(self):
        rng = np.random.default_rng(103)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            xs = rng.normal(size=(n, d))
            ys = rng.normal(size=(n, d))
            got = wasserstein2_assignment(EmpiricalMeasure(xs), EmpiricalMeasure(ys))
            assert got == pytest.approx(w2_bruteforce(xs, ys), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            wasserstein2_assignment(EmpiricalMeasure(np.zeros((2, 1))), EmpiricalMeasure(np.zeros((2, 2))))

    def test_size_limit(self):
        pts = np.zeros((513, 1))
        with pytest.raises(SizeLimitExceeded):
            wasserstein2_assignment(EmpiricalMeasure(pts), EmpiricalMeasure(pts))


class TestMetricProperties:
    def test_symmetry_identity_triangle(self):
        rng = np.random.default_rng(107)
        for _ in range(15):
            n, d = 6, 2
            a = EmpiricalMeasure(rng.normal(size=(n, d)))
            b = EmpiricalMeasure(rng.normal(size=(n, d)))
            c = EmpiricalMeasure(rng.normal(size=(n, d)))
            dab = wasserstein2_assignment(a, b)
            dba = wasserstein2_assignment(b, a)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert wasserstein2_assignment(a, a) == 0.0
            dac = wasserstein2_assignment(a, c)
            dcb = wasserstein2_assignment(c, b)
            assert dab <= dac + dcb + 1e-10

    def test_translation_invariance(self):
        rng = np.random.default_rng(109)
        xs = rng.normal(size=(8, 3))
        ys = rng.normal(size=(8, 3))
        shift = rng.normal(size=3)
        base = wasserstein2_assignment(EmpiricalMeasure(xs), EmpiricalMeasure(ys))
        moved = wasserstein2_assignment(
            EmpiricalMeasure(xs + shift), EmpiricalMeasure(ys + shift)
        )
        assert moved == pytest.approx(base, abs=1e-12)

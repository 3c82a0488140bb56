import warnings

import numpy as np
import pytest

from smallmass import linalg
from smallmass.errors import (
    IllConditionedWarning,
    NonFinite,
    SingularSystem,
    SpectrumOverlap,
    ToleranceNotMet,
    UnstableFriction,
    ValidationError,
)


def random_stable(rng, d, floor=0.5):
    """Random matrix whose symmetric part has smallest eigenvalue >= floor."""
    A = rng.normal(size=(d, d))
    shift = linalg.min_sym_eig(A)
    return A + (floor - min(shift, 0.0) + rng.uniform(0.0, 1.0)) * np.eye(d)


def random_psd(rng, d):
    B = rng.normal(size=(d, d))
    return B @ B.T


def diagonal(v):
    """The stack with diagonals v (..., d) and -0.0 off the diagonal, as
    -g * scales makes them of a diagonal g."""
    D = np.full(v.shape + v.shape[-1:], -0.0)
    idx = np.arange(v.shape[-1])
    D[..., idx, idx] = v
    return D


def on_the_dense_path(kernel, M):
    """``kernel`` on the stack M (n, d, d) with one non-diagonal matrix
    appended, which sends the whole stack down the dense path (all but
    ``expm``, which looks at each matrix); M's part."""
    d = M.shape[-1]
    dense = np.eye(d) + 0.5 * np.eye(d, k=1)
    return kernel(np.concatenate([M, dense[None]]))[:-1]


def exp_of_diagonals(v):
    """The diagonal matrices with diagonals np.exp(v) (..., d) and +0.0 off
    the diagonal."""
    E = np.zeros(v.shape + v.shape[-1:])
    idx = np.arange(v.shape[-1])
    E[..., idx, idx] = np.exp(v)
    return E


def lyap_residual(g, J, Q):
    return np.linalg.norm(g @ J + J @ g.T - Q) / max(np.linalg.norm(Q), 1.0)


def sylv_residual(A, B, C, Y):
    return np.linalg.norm(A @ Y - Y @ B - C) / max(np.linalg.norm(C), 1.0)


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(linalg.expm(np.zeros((2, 2))), np.eye(2), atol=1e-15)

    def test_diagonal(self):
        E = linalg.expm(np.diag([1.0, -1.0]))
        assert np.allclose(E, np.diag([np.e, 1.0 / np.e]), rtol=1e-12)

    def test_nilpotent_series_terminates(self):
        E = linalg.expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.array_equal(E, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_inverse_property(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            d = rng.integers(1, 7)
            M = rng.normal(size=(d, d))
            M *= 10.0 / max(np.abs(M).sum(axis=1).max(), 1e-12)
            prod = linalg.expm(M) @ linalg.expm(-M)
            assert np.linalg.norm(prod - np.eye(d)) <= 1e-10

    def test_symmetric_against_eigendecomposition(self):
        # independent oracle: e^M = V e^L V^T for symmetric M
        rng = np.random.default_rng(7)
        for norm in (1.0, 10.0, 100.0):
            M = rng.normal(size=(5, 5))
            M = 0.5 * (M + M.T)
            M *= norm / np.abs(M).sum(axis=1).max()
            lam, V = np.linalg.eigh(M)
            oracle = V @ np.diag(np.exp(lam)) @ V.T
            got = linalg.expm(M)
            assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFinite):
            linalg.expm(np.array([[np.nan, 0.0], [0.0, 0.0]]))


class TestMinSymEig:
    def test_identity(self):
        assert linalg.min_sym_eig(np.eye(3)) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal(self):
        assert linalg.min_sym_eig(np.diag([2.0, 3.0])) == pytest.approx(2.0, abs=1e-10)

    def test_closed_form_2x2(self):
        # symmetric part of [[1,2],[0,1]] is [[1,1],[1,1]] with eigenvalues 0, 2
        got = linalg.min_sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert got == pytest.approx(0.0, abs=1e-10)

    def test_idempotent_under_symmetrization(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            M = rng.normal(size=(4, 4))
            sym = 0.5 * (M + M.T)
            assert linalg.min_sym_eig(M) == linalg.min_sym_eig(sym)


class TestStacks:
    def test_stack_matches_one_matrix_at_a_time(self):
        # row-sum norms from 0.01 to 40 straddle the 1/4 scaling radius, so
        # the matrices of one stack need between 0 and 8 squarings
        rng = np.random.default_rng(11)
        for d in (1, 2, 3, 5):
            M = rng.normal(size=(12, d, d))
            norms = np.abs(M).sum(axis=-1).max(axis=-1)
            M = (M * (np.geomspace(0.01, 40.0, 12) / norms)[:, None, None]).reshape(3, 4, d, d)
            E = linalg.expm(M)
            lam = linalg.min_sym_eig_batch(M)
            assert E.shape == M.shape and lam.shape == M.shape[:2]
            for idx in np.ndindex(*M.shape[:2]):
                assert np.array_equal(E[idx], linalg.expm(M[idx]))
                assert lam[idx] == linalg.min_sym_eig(M[idx])
        # diagonal stacks over the same norms, both signs, a repeated entry in
        # every other matrix and -0.0 off the diagonal: the entrywise branch
        # gives the dense path's bits, and expm, which chooses matrix by
        # matrix, np.exp of the diagonals beside a dense matrix too
        for d in (2, 3, 5):
            v = rng.uniform(0.1, 1.0, size=(12, d)) * rng.choice([-1.0, 1.0], size=(12, d))
            v *= (np.geomspace(0.01, 40.0, 12) / np.abs(v).max(axis=-1))[:, None]
            v[::2, 1] = v[::2, 0]
            M = diagonal(v)
            assert linalg._diagonal(M) is not None
            assert linalg.expm(M).tobytes() == exp_of_diagonals(v).tobytes()
            for kernel in (linalg.expm, linalg.inv_batch, linalg.min_sym_eig_batch):
                assert kernel(M).tobytes() == on_the_dense_path(kernel, M).tobytes()
                for idx in range(len(M)):
                    assert kernel(M[idx][None]).tobytes() == kernel(M)[idx][None].tobytes()

    def test_expm_chooses_matrix_by_matrix(self):
        # diagonal and dense matrices mixed in one stack, at d = 1 too: each
        # gets the bits it gets alone, a diagonal one np.exp of its diagonal
        rng = np.random.default_rng(13)
        for d in (1, 2, 4):
            M = rng.normal(size=(3, 4, d, d)) * 3.0
            diag = rng.random((3, 4)) < 0.5
            M[diag] = diagonal(np.diagonal(M[diag], axis1=-2, axis2=-1))
            E = linalg.expm(M)
            for idx in np.ndindex(*M.shape[:2]):
                assert E[idx].tobytes() == linalg.expm(M[idx]).tobytes()
                if diag[idx] or d == 1:
                    assert E[idx].tobytes() == exp_of_diagonals(np.diagonal(M[idx])).tobytes()

    def test_expm_overflow_reads_inf_without_a_warning(self):
        # a diagonal one through np.exp, a dense one through the squarings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E = linalg.expm(np.array([np.diag([800.0, 1.0]), [[800.0, 1.0], [0.0, 1.0]]]))
            assert np.isinf(E[:, 0, 0]).all() and np.allclose(E[:, 1, 1], np.e, rtol=1e-14)
            assert linalg.expm(np.array([[[710.0]]]))[0, 0, 0] == np.inf

    def test_expm_of_a_diagonal_matrix_writes_exact_zeros(self):
        # an overflowed entry no longer spreads NaN along its row; finite
        # inputs keep their bits, since exp > 0 makes v * 0 read +0 too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E = linalg.expm(np.diag([800.0, 1.0]))
        assert E[0, 0] == np.inf and E[1, 1] == np.e
        assert E[0, 1] == 0.0 and E[1, 0] == 0.0 and not np.signbit(E).any()
        v = np.array([[-3.0, 0.5, 2.0], [-0.0, 0.0, -700.0]])
        assert linalg.expm(diagonal(v)).tobytes() == linalg._from_diagonal(np.exp(v)).tobytes()
        # the inverse keeps LAPACK's -0 in a negative row
        inv = linalg.inv_batch(np.diag([-2.0, 4.0])[None])[0]
        assert np.signbit(inv[0, 1]) and not np.signbit(inv[1, 0])
        assert inv.tobytes() == np.linalg.inv(np.diag([-2.0, 4.0])).tobytes()

    @pytest.mark.parametrize(
        "kernel, lapack",
        [
            (linalg.inv_batch, np.linalg.inv),
            (linalg.min_sym_eig_batch,
             lambda M: np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M, -1, -2)))[..., 0]),
        ],
        ids=["inv", "min_sym_eig"],
    )
    def test_d1_arithmetic_gives_lapack_bits(self, kernel, lapack):
        # magnitudes over six hundred decades, both signs, subnormals (whose
        # inverses overflow to inf, silently as in LAPACK) and non-finite entries
        rng = np.random.default_rng(12)
        mags = 10.0 ** rng.uniform(-300.0, 300.0, 400)
        tiny = [5e-324, 1e-310, 3e-320, np.finfo(float).tiny, 1.0, np.inf]
        vals = np.concatenate([mags, -mags, tiny, np.negative(tiny), [np.nan]])
        M = vals.reshape(-1, 3, 1, 1)
        got, want = kernel(M), lapack(M)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for v in vals[::37]:
            assert kernel(np.array([[v]])).tobytes() == lapack(np.array([[v]])).tobytes()
        # diagonal stacks of the same entries, -0.0 off the diagonal, where the
        # results are finite.  Above d = 1 LAPACK's inverse spreads the NaN of
        # a subnormal or NaN entry's row over the rows above it, and its
        # eigvalsh rescales a matrix with an entry outside about 1e-146..1e146,
        # which moves the eigenvalues in the last bit, and gives garbage on a
        # non-finite one; the smallest diagonal entry stays exact.
        if kernel is linalg.inv_batch:
            vals = vals[np.abs(vals) >= np.finfo(float).tiny]
        else:
            vals = vals[(np.abs(vals) >= 1e-140) & (np.abs(vals) <= 1e140)]
        for d in (2, 3, 5):
            v = rng.permutation(vals)[: len(vals) // d * d].reshape(-1, d)
            got, want = kernel(diagonal(v)), lapack(diagonal(v))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_d1_inverse_of_zero_is_singular_as_in_lapack(self):
        # and so is a diagonal matrix with a zero (or -0.0) entry at any d
        for G in (np.array([[[0.0]]]), np.array([[[2.0]], [[-0.0]]]),
                  diagonal(np.array([[2.0, 0.0]])), diagonal(np.array([[1.0, 3.0, -0.0], [1.0, 2.0, 3.0]])),
                  diagonal(np.array([[0.0, 1.0, 2.0, 3.0, 4.0]]))):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.inv(G)
            with pytest.raises(np.linalg.LinAlgError):
                linalg.inv_batch(G)

    def test_expm_checks_every_matrix_of_a_stack(self):
        M = np.zeros((3, 2, 2))
        M[2, 1, 0] = np.inf
        with pytest.raises(NonFinite):
            linalg.expm(M)
        with pytest.raises(NonFinite):
            linalg.expm(np.full((4, 1, 1), np.nan))
        with pytest.raises(ValidationError):
            linalg.expm(np.zeros((3, 2, 3)))
        with pytest.raises(ValidationError):
            linalg.expm(np.zeros(3))

    def test_point_solvers_reject_stacks(self):
        g = np.broadcast_to(np.eye(2), (3, 2, 2))
        with pytest.raises(ValidationError):
            linalg.solve_lyapunov(g, g)
        with pytest.raises(ValidationError):
            linalg.min_sym_eig(g)
        with pytest.raises(ValidationError):
            linalg.lyapunov_by_quadrature(g, g, 1e-8)


def same_bits(got, want):
    """Equal shapes and values, and equal signs of zero."""
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def with_zeros(rng, shape):
    """Normal entries of both signs, about a quarter of them 0.0 or -0.0, so
    that entrywise products read -0.0 where the einsums read +0.0."""
    x = rng.normal(size=shape)
    zero = rng.random(shape) < 0.25
    x[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    return x


def swap(M):
    return np.swapaxes(M, -1, -2)


# Each product that the step and the limit drift route through the helpers:
# (the helper call, the einsum it replaced), on operands with a batch and a
# point axis (B, N): A a friction-like matrix, M a dense one, S a noise
# matrix (d, k) and Sy the noise at n samples, K a force matrix, x and w
# vectors of length d and k.  The force takes K as the models' constant
# coefficients hand it out, a contiguous (B, N, d, d) copy.
PRODUCTS = {
    "gamma v": (lambda o: linalg.matvec(o["A"], o["x"]),
                lambda o: np.einsum("bnij,bnj->bni", o["A"], o["x"])),
    "sigma dw": (lambda o: linalg.matvec(o["S"], o["w"]),
                 lambda o: np.einsum("bnik,bnk->bni", o["S"], o["w"])),
    "drift gain": (lambda o: linalg.matmat(o["A"], o["M"]),
                   lambda o: np.einsum("bnij,bnjk->bnik", o["A"], o["M"])),
    "E_half sigma dw": (lambda o: linalg.matvec(o["A"], o["S"], o["w"]),
                        lambda o: np.einsum("bnij,bnjk,bnk->bni", o["A"], o["S"], o["w"])),
    "-K x": (lambda o: -linalg.matvec(np.broadcast_to(o["K"], o["A"].shape).copy(), o["x"]),
             lambda o: -np.einsum("ij,bmj->bmi", o["K"], o["x"])),
    "ginv sigma": (lambda o: linalg.matmat(o["A"], o["S"]),
                   lambda o: np.einsum("bnij,bnjk->bnik", o["A"], o["S"])),
    "sigma sigma^T": (lambda o: linalg.matmat(o["S"], swap(o["S"])),
                      lambda o: np.einsum("bnik,bnjk->bnij", o["S"], o["S"])),
    "sigma(x) sigma(y)^T": (lambda o: linalg.matmat(o["S"][:, :, None], swap(o["Sy"])[:, None]),
                            lambda o: np.einsum("bnik,bmjk->bnmij", o["S"], o["Sy"])),
    "-ginv T": (lambda o: -linalg.matvec(o["A"], o["x"]),
                lambda o: -np.einsum("bnip,bnp->bni", o["A"], o["x"])),
}
# The products that take ``matmat``: the np.matmul that gives its bits on a
# dense or non-square A.
MATMUL = {
    "drift gain": lambda o: np.matmul(o["A"], o["M"]),
    "ginv sigma": lambda o: np.matmul(o["A"], o["S"]),
    "sigma sigma^T": lambda o: np.matmul(o["S"], swap(o["S"])),
    "sigma(x) sigma(y)^T": lambda o: np.matmul(o["S"][:, :, None], swap(o["Sy"])[:, None]),
}
# with a sample axis, the product that was a matmul: its bits on diagonal A
G_J = (lambda o: linalg.matmat(o["A"][:, :, None], o["J"]), lambda o: o["A"][:, :, None] @ o["J"])


def operands(rng, d, kind, k=None, B=3, N=4, n=5):
    """Operands of PRODUCTS at dimension d: diagonal A, S, Sy and K for
    ``kind`` "diagonal", broadcast constant views for "constant" (d = 1), and
    dense ones for "dense"; S and Sy are (d, k), and dense, when k is given."""
    k = d if k is None else k

    def matrix(shape, cols=d):
        if kind == "diagonal" and cols == d:
            return diagonal(with_zeros(rng, shape + (d,)))
        if kind == "constant":
            return np.broadcast_to(with_zeros(rng, (d, cols)), shape + (d, cols))
        return rng.normal(size=shape + (d, cols))   # no zero off the diagonal

    K = matrix(())
    return {"A": matrix((B, N)), "M": with_zeros(rng, (B, N, d, d)), "S": matrix((B, N), k),
            "Sy": matrix((B, n), k), "K": K, "x": with_zeros(rng, (B, N, d)),
            "w": with_zeros(rng, (B, N, k)), "J": with_zeros(rng, (B, N, n, d, d))}


class TestProducts:
    # on diagonal operands matvec and matmat are entrywise with the bits of
    # the einsum each one replaced, signed zeros included; otherwise matvec
    # is that einsum and matmat np.matmul

    @pytest.mark.parametrize("name", list(PRODUCTS) + ["g J"])
    @pytest.mark.parametrize("d, kind", [(1, "diagonal"), (1, "constant"), (2, "diagonal"),
                                         (3, "diagonal"), (4, "diagonal")])
    def test_diagonal_operands_are_entrywise_with_the_einsum_bits(self, monkeypatch, name, d, kind):
        rng = np.random.default_rng([d, len(name)])
        helper, replaced = G_J if name == "g J" else PRODUCTS[name]
        for _ in range(20):
            o = operands(rng, d, kind)
            want = replaced(o)
            with monkeypatch.context() as m:
                m.setattr(np, "einsum", None)   # the entrywise branch calls no einsum
                got = helper(o)
            assert same_bits(got, want)

    @pytest.mark.parametrize("name", list(PRODUCTS))
    @pytest.mark.parametrize("d, k", [(2, None), (3, None), (4, None), (1, 2), (2, 1), (2, 3)],
                             ids=["dense-d2", "dense-d3", "dense-d4", "d1-k2", "d2-k1", "d2-k3"])
    def test_dense_and_non_square_operands_take_matmul_or_the_einsum(self, monkeypatch, name, d, k):
        # a dense operand, or a non-square sigma beside a diagonal A wherever
        # it is a matrix operand (sigma dw, E_half sigma dw and the sigma
        # sigma^T), sends matmat to np.matmul and matvec to its einsum
        rng = np.random.default_rng([d, k or 0, len(name)])
        o = operands(rng, d, "dense" if k is None else "diagonal", k)
        helper, replaced = PRODUCTS[name]
        kernel = np.matmul if name in MATMUL else np.einsum
        calls = []

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        want = MATMUL[name](o) if name in MATMUL else replaced(o)
        monkeypatch.setattr(np, kernel.__name__, counted)
        got = helper(o)
        assert same_bits(got, want)
        takes_sigma = name in ("sigma dw", "E_half sigma dw", "sigma sigma^T", "sigma(x) sigma(y)^T")
        if k is None or takes_sigma:
            assert len(calls) == 1

    def test_diagonal_is_none_for_non_square_stacks(self):
        # a (2, 1) or (1, 2) matrix has no diagonal to multiply by
        for shape in ((3, 2, 1), (3, 1, 2), (2, 3)):
            assert linalg._diagonal(np.ones(shape)) is None


class TestPointSolverConditioning:
    # gamma = diag(1e-11, s) passes the stability floor, but its Kronecker
    # operator has condition number 2 s / 2e-11, which the check's bound
    # (||G1|| + ||G2||) / 2c gives exactly for a normal gamma
    def test_lyapunov_singular_raises(self):
        with pytest.raises(SingularSystem):
            linalg.solve_lyapunov(np.diag([1e-11, 1e4]), np.eye(2))

    def test_sylvester_singular_raises(self):
        g = np.diag([1e-11, 1e4])
        with pytest.raises(SingularSystem):
            linalg.solve_sylvester(-g, g, np.eye(2))

    def test_lyapunov_ill_conditioned_warns(self):
        with pytest.warns(IllConditionedWarning):
            J = linalg.solve_lyapunov(np.diag([1e-11, 100.0]), np.eye(2))
        assert np.allclose(J, np.diag([0.5e11, 0.005]), rtol=1e-12)

    def test_sylvester_ill_conditioned_warns(self):
        g = np.diag([1e-11, 100.0])
        with pytest.warns(IllConditionedWarning):
            Y = linalg.solve_sylvester(-g, g, -np.eye(2))
        assert np.allclose(Y, np.diag([0.5e11, 0.005]), rtol=1e-12)

    @staticmethod
    def rotated(*eigenvalues):
        """R diag(eigenvalues) R^T: symmetric, with no zero off the diagonal."""
        t = 0.3
        R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        return R @ np.diag(eigenvalues) @ R.T

    def test_rotated_singular_raises(self):
        g = self.rotated(1e-11, 1e4)
        assert linalg._diagonal(g[None]) is None
        with pytest.raises(SingularSystem):
            linalg.solve_lyapunov(g, np.eye(2))

    def test_rotated_ill_conditioned_warns(self):
        g = self.rotated(1e-11, 100.0)
        with pytest.warns(IllConditionedWarning):
            J = linalg.solve_lyapunov(g, np.eye(2))
        # a condition number of 1e13 leaves J about three digits
        assert np.allclose(J, self.rotated(0.5e11, 0.005), rtol=1e-2)

    def test_defective_friction_solves_silently_on_the_fallback(self, monkeypatch):
        built = []
        operator = linalg._operator
        monkeypatch.setattr(linalg, "_operator", lambda G1, G2: built.append(G1) or operator(G1, G2))
        g = np.array([[1.0, 1.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            J = linalg.solve_lyapunov(g, np.eye(2))
            Y = linalg.solve_sylvester(-g, g.T, -np.eye(2))
        assert len(built) == 2
        assert np.allclose(J, [[0.75, -0.25], [-0.25, 0.5]], atol=1e-12)
        assert np.allclose(Y, J, atol=1e-12)

    def test_well_conditioned_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            linalg.solve_lyapunov(np.diag([1e-3, 100.0]), np.eye(2))
            linalg.solve_sylvester(-np.eye(3), np.eye(3), np.ones((3, 3)))


class TestLyapunov:
    def test_scalar(self):
        J = linalg.solve_lyapunov(np.array([[2.0]]), np.array([[9.0]]))
        assert np.allclose(J, [[2.25]], atol=1e-14)

    def test_identity_friction_halves_q(self):
        rng = np.random.default_rng(5)
        Q = random_psd(rng, 4)
        J = linalg.solve_lyapunov(np.eye(4), Q)
        assert np.allclose(J, Q / 2.0, atol=1e-12)

    def test_hand_eliminated_2x2(self):
        # gamma J + J gamma^T = I with gamma = [[1,1],[0,1]] has the unique
        # symmetric solution [[0.75, -0.25], [-0.25, 0.5]] (three unknowns,
        # eliminated by hand).
        g = np.array([[1.0, 1.0], [0.0, 1.0]])
        J = linalg.solve_lyapunov(g, np.eye(2))
        assert np.allclose(J, [[0.75, -0.25], [-0.25, 0.5]], atol=1e-12)

    def test_residual_symmetry_psd_on_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            d = int(rng.integers(1, 7))
            g = random_stable(rng, d)
            Q = random_psd(rng, d)
            J = linalg.solve_lyapunov(g, Q)
            assert lyap_residual(g, J, Q) <= 1e-10
            assert np.array_equal(J, J.T)
            assert np.linalg.eigvalsh(J)[0] >= -1e-10

    def test_unstable_raises(self):
        with pytest.raises(UnstableFriction):
            linalg.solve_lyapunov(np.array([[-1.0]]), np.array([[1.0]]))

    def test_operands_of_different_dimensions_are_rejected(self):
        with pytest.raises(ValidationError, match="one dimension"):
            linalg.solve_lyapunov(np.eye(2), np.eye(3))


class TestSylvester:
    def test_scalar(self):
        Y = linalg.solve_sylvester(
            np.array([[-2.0]]), np.array([[3.0]]), np.array([[-5.0]])
        )
        assert np.allclose(Y, [[1.0]], atol=1e-14)

    def test_coincides_with_lyapunov(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            g = random_stable(rng, d)
            Q = random_psd(rng, d)
            Y = linalg.solve_sylvester(-g, g.T, -Q)
            J = linalg.solve_lyapunov(g, Q)
            assert np.linalg.norm(Y - J) <= 1e-13 * max(np.linalg.norm(J), 1.0)

    def test_residual_random_d4(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            A = -random_stable(rng, 4)
            B = random_stable(rng, 4)
            C = rng.normal(size=(4, 4))
            Y = linalg.solve_sylvester(A, B, C)
            assert sylv_residual(A, B, C, Y) <= 1e-10

    def test_spectrum_overlap_raises(self):
        with pytest.raises(SpectrumOverlap):
            linalg.solve_sylvester(
                np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]])
            )


class TestQuadrature:
    def test_identity_case(self):
        J = linalg.lyapunov_by_quadrature(np.eye(2), np.eye(2), 1e-8)
        assert np.linalg.norm(J - 0.5 * np.eye(2)) <= 1e-8

    def test_scalar_case(self):
        J = linalg.lyapunov_by_quadrature(np.array([[2.0]]), np.array([[9.0]]), 1e-8)
        assert abs(J[0, 0] - 2.25) <= 1e-8

    def test_zero_right_hand_side_gives_zeros(self):
        gamma = np.array([[2.0, 0.5], [-0.3, 1.5]])
        J = linalg.lyapunov_by_quadrature(gamma, np.zeros((2, 2)), 1e-8)
        assert np.array_equal(J, np.zeros((2, 2)))

    def test_agrees_with_direct_solver(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(50):
            d = int(rng.integers(1, 7))
            g = random_stable(rng, d)
            Q = random_psd(rng, d)
            J_quad = linalg.lyapunov_by_quadrature(g, Q, 1e-8)
            J_dir = linalg.solve_lyapunov(g, Q)
            worst = max(worst, float(np.abs(J_quad - J_dir).max()))
        assert worst <= 1e-6

    def test_sylvester_scalar(self):
        Y = linalg.sylvester_by_quadrature(
            np.array([[-2.0]]), np.array([[3.0]]), np.array([[-5.0]]), 1e-8
        )
        assert abs(Y[0, 0] - 1.0) <= 1e-8

    def test_sylvester_matches_lyapunov_case(self):
        rng = np.random.default_rng(29)
        g = random_stable(rng, 3)
        Q = random_psd(rng, 3)
        Y = linalg.sylvester_by_quadrature(-g, g.T, -Q, 1e-8)
        J = linalg.solve_lyapunov(g, Q)
        assert np.abs(Y - J).max() <= 1e-6

    def test_sylvester_agrees_with_direct(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(50):
            d = int(rng.integers(1, 7))
            A = -random_stable(rng, d)
            B = random_stable(rng, d)
            C = rng.normal(size=(d, d))
            Y_quad = linalg.sylvester_by_quadrature(A, B, C, 1e-8)
            Y_dir = linalg.solve_sylvester(A, B, C)
            worst = max(worst, float(np.abs(Y_quad - Y_dir).max()))
        assert worst <= 1e-6

    def test_tolerance_not_met(self):
        # slow decay keeps the panel-to-panel difference pinned at the
        # floating point noise floor (~1e-13 here), above the requested tol
        g = np.array([[0.01]])
        with pytest.raises(ToleranceNotMet):
            linalg.lyapunov_by_quadrature(g, np.array([[1.0]]), 1e-14, max_panels=16)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), 1e-320])
    def test_tolerance_without_a_finite_cut_off(self, tol):
        # |Q| / (tol c) is zero, negative, NaN or beyond the float range
        with pytest.raises(ToleranceNotMet, match="cut-off"):
            linalg.lyapunov_by_quadrature(np.eye(2), np.eye(2), tol)
        with pytest.raises(ToleranceNotMet, match="cut-off"):
            linalg.sylvester_by_quadrature(-np.eye(2), np.eye(2), np.eye(2), tol)

    def test_unstable_raises(self):
        with pytest.raises(UnstableFriction):
            linalg.lyapunov_by_quadrature(np.zeros((2, 2)), np.eye(2), 1e-8)


class TestBatchedSolvers:
    # the point references are the semigroup integrals, evaluated by
    # quadrature, so they share no code with the Kronecker kernel
    def test_lyapunov_batch_matches_point_solver(self):
        rng = np.random.default_rng(37)
        for d in (1, 2, 3):
            gs = np.stack([random_stable(rng, d) for _ in range(8)])
            Qs = np.stack([random_psd(rng, d) for _ in range(8)])
            Js = linalg.lyapunov_batch(gs, Qs)
            for g, Q, J in zip(gs, Qs, Js):
                ref = linalg.lyapunov_by_quadrature(g, Q, 1e-10)
                assert np.abs(J - ref).max() <= 1e-8 * max(np.abs(ref).max(), 1.0)

    def test_sylvester_batch_matches_point_solver(self):
        rng = np.random.default_rng(41)
        for d in (1, 2, 4):
            As = np.stack([-random_stable(rng, d) for _ in range(6)])
            Bs = np.stack([random_stable(rng, d) for _ in range(6)])
            Cs = rng.normal(size=(6, d, d))
            Ys = linalg.sylvester_batch(-As, np.swapaxes(Bs, -1, -2), -Cs)
            for A, B, C, Y in zip(As, Bs, Cs, Ys):
                ref = linalg.sylvester_by_quadrature(A, B, C, 1e-10)
                assert np.abs(Y - ref).max() <= 1e-8 * max(np.abs(ref).max(), 1.0)

    def test_sylvester_batch_broadcasts(self):
        # gamma(x) and gamma(y) against each other, as the measure drift passes
        # them: the same bits as the stacks materialized to (B, N, n, d, d)
        rng = np.random.default_rng(43)
        B, N, n = 2, 3, 4
        for d in (1, 2, 4):
            G1 = np.stack([random_stable(rng, d) for _ in range(B * N)]).reshape(B, N, 1, d, d)
            G2 = np.stack([random_stable(rng, d) for _ in range(B * n)]).reshape(B, 1, n, d, d)
            Q = rng.normal(size=(B, N, n, d, d))
            full = (B, N, n, d, d)
            J = linalg.sylvester_batch(G1, G2, Q)
            ref = linalg.sylvester_batch(
                np.broadcast_to(G1, full).copy(), np.broadcast_to(G2, full).copy(), Q
            )
            assert J.shape == full
            assert J.tobytes() == ref.tobytes()


class TestSpectralStackSolve:
    # the stack solve diagonalizes G1 and G2; its Kronecker fallback for
    # defective frictions is the reference
    @staticmethod
    def stacks(rng, d, B=2, N=5, n=4):
        G1 = np.stack([random_stable(rng, d) for _ in range(B * N)]).reshape(B, N, 1, d, d)
        G2 = np.stack([random_stable(rng, d) for _ in range(B * n)]).reshape(B, 1, n, d, d)
        return G1, G2, rng.normal(size=(B, N, n, d, d))

    @staticmethod
    def relative_gap(J, ref):
        return float((np.linalg.norm(J - ref, axis=(-2, -1))
                      / np.linalg.norm(ref, axis=(-2, -1))).max())

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_the_kronecker_solve_on_non_normal_stacks(self, d):
        rng = np.random.default_rng(47 + d)
        for _ in range(10):
            G1, G2, Q = self.stacks(rng, d)
            assert np.abs(np.linalg.eigvals(G1).imag).max() > 0.0   # complex eigenpairs
            J = linalg.sylvester_batch(G1, G2, Q)
            assert J.dtype == float and J.shape == Q.shape
            assert self.relative_gap(J, linalg._solve(G1, G2, Q)) <= 1e-12
            g = G1[:, :, 0]
            Qs = Q[:, :, 0] @ np.swapaxes(Q[:, :, 0], -1, -2)
            assert self.relative_gap(linalg.lyapunov_batch(g, Qs), linalg._solve(g, g, Qs)) <= 1e-12
        # a mixed pair: a diagonal side takes its exact factors (diag, I, I)
        # against the other side's eigenbasis, either way round
        G1 = diagonal(np.diagonal(G1, axis1=-2, axis2=-1))
        assert linalg._diagonal(G1) is not None and linalg._diagonal(G2) is None
        for A, B in ((G1, G2), (G2, G1)):
            assert self.relative_gap(linalg.sylvester_batch(A, B, Q), linalg._solve(A, B, Q)) <= 1e-13

    def test_defective_friction_takes_the_kronecker_bits(self):
        # per pair: the pairs that touch the defective matrix take _solve's
        # bits, and every other pair keeps the spectral bits it has without it
        rng = np.random.default_rng(53)
        G1, G2, Q = self.stacks(rng, 2)
        defective = np.array([[2.0, 1.0], [0.0, 2.0]])
        assert linalg._eigenbasis(defective)[3]
        assert linalg._eigenbasis(G1)[3] is None
        bad = G1.copy()
        bad[1, 3, 0] = defective
        touched = (1, 3)   # the pairs (1, 3, :) of the (B, N, n) stack
        # the defective matrix on the x side, then on the y side
        for A, B, A_bad, B_bad in ((G1, G2, bad, G2), (G2, G1, G2, bad)):
            J, clean = linalg.sylvester_batch(A_bad, B_bad, Q), linalg.sylvester_batch(A, B, Q)
            assert J[touched].tobytes() == linalg._solve(A_bad, B_bad, Q)[touched].tobytes()
            J[touched] = clean[touched]
            assert J.tobytes() == clean.tobytes()
        g, g_bad, Q_x = G1[:, :, 0], bad[:, :, 0], Q[:, :, 0]
        J, clean = linalg.lyapunov_batch(g_bad, Q_x), linalg.lyapunov_batch(g, Q_x)
        assert J[touched].tobytes() == linalg._solve(g_bad, g_bad, Q_x)[touched].tobytes()
        J[touched] = clean[touched]
        assert J.tobytes() == clean.tobytes()

    def test_eigen_decompositions_run_on_the_unbroadcast_stacks(self, monkeypatch):
        factored = []
        eig = np.linalg.eig

        def counted(a):
            factored.append(int(np.prod(np.shape(a)[:-2])))
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counted)
        B, N, n = 2, 5, 4
        G1, G2, Q = self.stacks(np.random.default_rng(59), 3, B, N, n)
        linalg.sylvester_batch(G1, G2, Q)
        assert sorted(factored) == [B * n, B * N]    # not B * N * n each
        factored.clear()
        linalg.lyapunov_batch(G1[:, :, 0], Q[:, :, 0])
        assert factored == [B * N]                   # gamma is factored once

    def test_d1_keeps_the_scalar_formula(self, monkeypatch):
        # diagonal stacks, which include every d = 1 stack, solve as
        # Q / (g1_a + g2_b) without eig, in the bits of the eigen path (LAPACK
        # returns V = I for a diagonal matrix), which a non-diagonal matrix
        # appended to each side forces
        rng = np.random.default_rng(61)
        cases = []
        for d in (1, 2, 3, 5):
            G1, G2, Q = self.stacks(rng, d, N=6, n=5)
            if d > 1:
                # diagonal but for the last matrix of each side, a symmetric
                # one, which keeps the eigen path real (numpy's complex
                # division multiplies by a reciprocal)
                D1, D2 = (diagonal(np.diagonal(G, axis1=-2, axis2=-1)) for G in (G1, G2))
                D2[..., 1, 1] = D2[..., 0, 0]     # a repeated entry
                D1[:, -1] = G1[:, -1] + np.swapaxes(G1[:, -1], -1, -2)
                D2[:, :, -1] = G2[:, :, -1] + np.swapaxes(G2[:, :, -1], -1, -2)
                assert linalg._diagonal(D1) is None and linalg._diagonal(D2) is None
                J_dense = linalg.sylvester_batch(D1, D2, Q)[:, :-1, :-1]
                L_dense = linalg.lyapunov_batch(D1[:, :, 0], Q[:, :, 0])[:, :-1]
                G1, G2, Q = D1[:, :-1], D2[:, :, :-1], Q[:, :-1, :-1]
                assert J_dense.tobytes() == linalg.sylvester_batch(G1, G2, Q).tobytes()
                assert L_dense.tobytes() == linalg.lyapunov_batch(G1[:, :, 0], Q[:, :, 0]).tobytes()
            cases.append((G1, G2, Q))
        monkeypatch.setattr(np.linalg, "eig", None)
        for G1, G2, Q in cases:
            g1, g2 = (np.diagonal(G, axis1=-2, axis2=-1) for G in (G1, G2))
            want = Q / (g1[..., :, None] + g2[..., None, :])
            assert linalg.sylvester_batch(G1, G2, Q).tobytes() == want.tobytes()
            want = Q[:, :, 0] / (g1[:, :, 0, :, None] + g1[:, :, 0, None, :])
            assert linalg.lyapunov_batch(G1[:, :, 0], Q[:, :, 0]).tobytes() == want.tobytes()
        G1, G2, Q = cases[0]
        assert linalg.sylvester_batch(G1, G2, Q).tobytes() == (Q / (G1 + G2)).tobytes()
        assert linalg.lyapunov_batch(G1, Q).tobytes() == (Q / (G1 + G1)).tobytes()

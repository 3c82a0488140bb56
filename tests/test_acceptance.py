"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Monte Carlo criteria run at fixed seeds so the suite is deterministic; the
statistical tolerances (3 standard errors, 1 standard error, bracket bounds)
are asserted exactly as stated.
"""

import itertools
import json
import time

import numpy as np

from smallmass import linalg
from smallmass.cli import dispatch
from smallmass.convergence import (
    DeltaRule,
    constant_reduction_check,
    fit_rate,
    run_convergence,
)
from smallmass.dynamics import diagnostics_velocity, simulate_coupled
from smallmass.measures import (
    EmpiricalMeasure,
    wasserstein2_1d,
    wasserstein2_assignment,
)
from smallmass.models import (
    ModelSpec,
    drift_S,
    drift_S_tilde,
    limit_drift_fields,
    model_library,
)

import exact_ou


def check(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def stable_matrix(rng, d, floor=0.5):
    A = rng.normal(size=(d, d))
    lift = floor - min(linalg.min_sym_eig(A), 0.0) + rng.uniform(0.0, 0.5)
    return A + lift * np.eye(d)


def constant_ou():
    return model_library(
        ModelSpec("constant", {"gamma0": 2.0, "K": 1.0, "sigma": 1.0, "d": 1})
    )


def test_criterion_1_matrix_equations():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_lyap = 0.0
    worst_sylv = 0.0
    for d in range(1, 9):
        for _ in range(100):
            g = stable_matrix(rng, d)
            B = rng.normal(size=(d, d))
            Q = B @ B.T
            J = linalg.solve_lyapunov(g, Q)
            res = np.linalg.norm(g @ J + J @ g.T - Q) / max(np.linalg.norm(Q), 1.0)
            worst_lyap = max(worst_lyap, res)

            A = -stable_matrix(rng, d)
            Bm = stable_matrix(rng, d)
            C = rng.normal(size=(d, d))
            Y = linalg.solve_sylvester(A, Bm, C)
            res = np.linalg.norm(A @ Y - Y @ Bm - C) / max(np.linalg.norm(C), 1.0)
            worst_sylv = max(worst_sylv, res)

    worst_quad = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 7))
        g = stable_matrix(rng, d)
        B = rng.normal(size=(d, d))
        Q = B @ B.T
        gap = np.linalg.norm(
            linalg.lyapunov_by_quadrature(g, Q, 1e-8) - linalg.solve_lyapunov(g, Q)
        )
        worst_quad = max(worst_quad, gap)
        A = -stable_matrix(rng, d)
        Bm = stable_matrix(rng, d)
        C = rng.normal(size=(d, d))
        gap = np.linalg.norm(
            linalg.sylvester_by_quadrature(A, Bm, C, 1e-8)
            - linalg.solve_sylvester(A, Bm, C)
        )
        worst_quad = max(worst_quad, gap)
    elapsed = time.perf_counter() - start
    check(
        "criterion 1 (matrix equations)",
        worst_lyap <= 1e-10 and worst_sylv <= 1e-10 and worst_quad <= 1e-6
        and elapsed < 5.0,
        f"residuals lyap={worst_lyap:.2e} sylv={worst_sylv:.2e} "
        f"quadrature gap={worst_quad:.2e} runtime={elapsed:.2f}s (< 5 s)",
    )


def test_criterion_2_degenerate_exactness():
    rng = np.random.default_rng(1002)
    model = model_library(
        ModelSpec(
            "constant",
            {"gamma0": [[2.0, 0.4], [0.0, 3.0]], "K": 1.0, "sigma": 0.8, "d": 2},
        )
    )
    all_zero = True
    for _ in range(20):
        x = rng.normal(size=2)
        mu = EmpiricalMeasure(rng.normal(size=(6, 2)))
        S = drift_S(model, x, mu)
        St = drift_S_tilde(model, x, mu)
        all_zero &= bool(np.all(S == 0.0) and np.all(St == 0.0))
    gap1 = constant_reduction_check(constant_ou(), T=1.0, seed=42)
    gap2 = constant_reduction_check(model, T=0.5, seed=43, n_particles=3)
    check(
        "criterion 2 (degenerate exactness)",
        all_zero and gap1 == 0.0 and gap2 == 0.0,
        f"drift corrections exactly zero={all_zero}, "
        f"reduction gaps=({gap1}, {gap2})",
    )


def test_criterion_3_drift_corrections():
    rng = np.random.default_rng(1003)
    worst_s = 0.0
    for i in range(100):
        d = 1 if i % 2 == 0 else 2
        model = model_library(
            ModelSpec(
                "interaction",
                {
                    "a": float(rng.uniform(1.5, 3.0)),
                    "b": float(rng.uniform(-0.8, 0.8)),
                    "c": float(rng.uniform(0.0, 1.5)),
                    "d": d,
                    "sigma": float(rng.uniform(0.5, 1.5)),
                },
            )
        )
        x = rng.normal(size=d)
        mu = EmpiricalMeasure(rng.normal(size=(int(rng.integers(2, 8)), d)))
        got = drift_S(model, x, mu)
        # oracle: central finite difference of gamma^{-1} contracted with the
        # directly solved Lyapunov matrix
        h = 1e-5
        G = np.empty((d, d, d))
        for l in range(d):
            e = np.zeros(d)
            e[l] = h
            plus = np.linalg.inv(model.friction(x + e, mu))
            minus = np.linalg.inv(model.friction(x - e, mu))
            G[:, :, l] = (plus - minus) / (2.0 * h)
        sig = model.noise(x, mu)
        J = linalg.solve_lyapunov(model.friction(x, mu), sig @ sig.T)
        ref = np.einsum("ijl,jl->i", G, J)
        worst_s = max(worst_s, float(np.abs(got - ref).max()))

    worst_st = 0.0
    for _ in range(100):
        model = model_library(
            ModelSpec(
                "interaction",
                {
                    "a": float(rng.uniform(1.5, 3.0)),
                    "b": float(rng.uniform(-0.8, 0.8)),
                    "c": float(rng.uniform(0.1, 1.5)),
                    "d": 1,
                    "sigma": float(rng.uniform(0.5, 1.5)),
                },
            )
        )
        x = float(rng.normal())
        pts = rng.normal(size=(int(rng.integers(2, 9)), 1))
        mu = EmpiricalMeasure(pts)
        got = drift_S_tilde(model, x, mu)[0]
        g_x = model.friction(x, mu)[0, 0]
        s_x = model.noise(x, mu)[0, 0]
        acc = 0.0
        for y in pts[:, 0]:
            g_y = model.friction(y, mu)[0, 0]
            s_y = model.noise(y, mu)[0, 0]
            dmu = model.friction_dmu(x, mu, y)[0, 0, 0]
            j_tilde = s_x * s_y / (g_x + g_y)  # scalar Sylvester closed form
            acc += (-dmu / g_x ** 2) * j_tilde
        ref = acc / len(pts)
        worst_st = max(worst_st, abs(got - ref))
    check(
        "criterion 3 (drift corrections vs oracles)",
        worst_s <= 1e-8 and worst_st <= 1e-8,
        f"max |S - oracle| = {worst_s:.2e}, max |S~ - oracle| = {worst_st:.2e}",
    )


def test_criterion_4a_velocity_second_moment():
    start = time.perf_counter()
    model = constant_ou()
    target = 0.25  # sigma^2 / (2 gamma)
    results = []
    ok = True
    for eps, seed in ((0.1, 4101), (0.01, 4102)):
        diag = diagnostics_velocity(
            model, eps, T=1.0, delta=eps / 100.0, replicas=500, seed=seed, n_record=10
        )
        results.append((eps, diag.sup_ev2, diag.sup_ev2_stderr))
        ok &= abs(diag.sup_ev2 - target) <= 3.0 * diag.sup_ev2_stderr
    elapsed = time.perf_counter() - start
    detail = ", ".join(
        f"eps={e}: {v:.4f}+-{s:.4f}" for e, v, s in results
    )
    check(
        "criterion 4a (velocity plateau)",
        ok and elapsed < 120.0,
        f"{detail} vs target {target} at 3 SE; runtime={elapsed:.1f}s (< 120 s)",
    )


def ratio_with_stderr(num, den):
    """Ratio of two independent estimates (mean, SE), SE by the delta method."""
    ratio = num[0] / den[0]
    return ratio, ratio * float(np.hypot(num[1] / num[0], den[1] / den[0]))


def test_criterion_4b_reference_transition_is_exact():
    # Checks the oracle of criterion 4b without Monte Carlo: the closed-form
    # stationary covariance must be a fixed point of its one-step transition.
    worst = 0.0
    for eps in (0.04, 0.01):
        Phi, Q = exact_ou.exact_transition(2.0, 1.0, 1.0, eps, eps / 100.0)
        sigma_inf = exact_ou.stationary_covariance(2.0, 1.0, 1.0, eps)
        res = sigma_inf - Phi @ sigma_inf @ Phi.T - Q
        worst = max(worst, np.linalg.norm(res) / np.linalg.norm(sigma_inf))
    check(
        "criterion 4b oracle (exact OU transition)",
        worst <= 1e-12,
        f"max relative |Sigma - Phi Sigma Phi^T - Q| = {worst:.2e} (<= 1e-12)",
    )


def test_criterion_4b_velocity_fourth_moment_ratio():
    # NOTE: asserts that E[(sup|eps v|)^4] decays (ratio >= 2 between
    # eps = 0.04 and eps = 0.01) and that the ratio agrees within 3 combined
    # standard errors with an exact-transition reference (tests/exact_ou.py,
    # numpy only, same grid and x0 = v0 = 0).  The old upper end 8 came from
    # the paper's upper envelope for this term, not from a rate: for this
    # family eps v has variance ~ eps sigma^2 / (2 gamma), so the functional
    # decays like eps^2 up to a log factor and the ratio is near 16/polylog.
    # The reference gave 9.62 +- 0.08 (8000 replicas, seeds 4203/4204); two
    # further runs of 20000 replicas (seeds 11/12, 13/14) gave 9.57 +- 0.05
    # and 9.71 +- 0.05.
    start = time.perf_counter()
    model = constant_ou()
    vals = {}
    for eps, seed in ((0.04, 4201), (0.01, 4202)):
        diag = diagnostics_velocity(
            model, eps, T=1.0, delta=eps / 100.0, replicas=500, seed=seed, n_record=10
        )
        vals[eps] = (diag.mean_sup_ev4, diag.mean_sup_ev4_stderr)
    elapsed = time.perf_counter() - start
    ratio, ratio_se = ratio_with_stderr(vals[0.04], vals[0.01])
    ref = {
        eps: exact_ou.mean_sup_ev4(
            2.0, 1.0, 1.0, eps, T=1.0, delta=eps / 100.0, replicas=8000, seed=seed
        )
        for eps, seed in ((0.04, 4203), (0.01, 4204))
    }
    ref_ratio, ref_se = ratio_with_stderr(ref[0.04], ref[0.01])
    tol = 3.0 * float(np.hypot(ratio_se, ref_se))
    check(
        "criterion 4b (fourth-moment ratio)",
        ratio >= 2.0 and abs(ratio - ref_ratio) <= tol and elapsed < 120.0,
        f"E[(sup|eps v|)^4]: eps=0.04 -> {vals[0.04][0]:.3e}, "
        f"eps=0.01 -> {vals[0.01][0]:.3e}, ratio={ratio:.2f}+-{ratio_se:.2f} "
        f"(required >= 2) vs exact reference {ref_ratio:.2f}+-{ref_se:.2f} "
        f"(required within 3 SE = {tol:.2f}); runtime={elapsed:.1f}s (< 120 s)",
    )


def test_criterion_5_convergence_rate_constant_family():
    start = time.perf_counter()
    model = constant_ou()
    report = run_convergence(
        model,
        [0.1, 0.05, 0.02, 0.01],
        T=1.0,
        n_particles=1,
        replicas=200,
        seed=5001,
        delta_rule=DeltaRule(scheme="explicit", kappa=20.0),
        Delta=0.01,
    )
    fit = fit_rate(report)
    err = np.asarray(report.errors)
    se = np.asarray(report.stderrs)
    monotone = all(
        err[i + 1] <= err[i] + np.sqrt(se[i] ** 2 + se[i + 1] ** 2)
        for i in range(len(err) - 1)
    )
    ratios = np.asarray(report.ratios)
    spread = float(ratios.max() / ratios.min())
    elapsed = time.perf_counter() - start
    check(
        "criterion 5 (constant-family convergence rate)",
        monotone and fit.slope >= 0.4 and spread <= 5.0 and elapsed < 600.0,
        f"errors={[f'{e:.3e}' for e in err]}, slope={fit.slope:.3f} (>= 0.4), "
        f"ratio spread={spread:.2f} (<= 5), monotone within 1 SE={monotone}, "
        f"runtime={elapsed:.1f}s (< 600 s)",
    )


def test_criterion_6_mean_field_family():
    start = time.perf_counter()
    model = model_library(
        ModelSpec("interaction", {"a": 2.0, "b": 0.5, "c": 1.0, "d": 1, "sigma": 1.0})
    )
    report = run_convergence(
        model,
        [0.1, 0.05, 0.02, 0.01],
        T=0.5,
        n_particles=64,
        replicas=100,
        seed=6001,
        delta_rule=DeltaRule(scheme="explicit", kappa=20.0),
        Delta=0.01,
        x0=0.0,
        v0=0.0,
    )
    err = np.asarray(report.errors)
    se = np.asarray(report.stderrs)
    finite = bool(np.all(np.isfinite(err)) and np.all(np.isfinite(se)))
    decreasing = all(
        err[i + 1] <= err[i] + np.sqrt(se[i] ** 2 + se[i + 1] ** 2)
        for i in range(len(err) - 1)
    )

    # measure the distribution-induced drift along an actual coupled path
    res = simulate_coupled(
        model, eps=0.05, T=0.5, delta=0.0025, Delta=0.01, n_particles=64,
        replica_id=0, seed=6002, record_paths=True,
    )
    snaps = res.paths.x_limit[::10]
    _, _, S_t, _ = limit_drift_fields(model, snaps)
    mean_abs_st = float(np.mean(np.abs(S_t)))
    st_nonzero = mean_abs_st > 10.0 * 1e-10
    elapsed = time.perf_counter() - start
    check(
        "criterion 6 (mean-field family)",
        finite and decreasing and st_nonzero and elapsed < 1200.0,
        f"errors={[f'{e:.3e}' for e in err]}, decreasing within 1 SE={decreasing}, "
        f"mean |S~| along paths={mean_abs_st:.2e} (> 1e-9), "
        f"runtime={elapsed:.1f}s (< 1200 s)",
    )


def test_criterion_7_wasserstein_oracle():
    rng = np.random.default_rng(7001)
    worst_bf = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 7))
        d = int(rng.integers(1, 4))
        xs = rng.normal(size=(n, d))
        ys = rng.normal(size=(n, d))
        got = wasserstein2_assignment(EmpiricalMeasure(xs), EmpiricalMeasure(ys))
        best = min(
            sum(float(np.sum((xs[i] - ys[p]) ** 2)) for i, p in enumerate(perm))
            for perm in itertools.permutations(range(n))
        )
        worst_bf = max(worst_bf, abs(got - float(np.sqrt(best / n))))

    worst_1d = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 40))
        mu = EmpiricalMeasure(rng.normal(size=n))
        nu = EmpiricalMeasure(rng.normal(size=n))
        worst_1d = max(
            worst_1d,
            abs(wasserstein2_assignment(mu, nu) - wasserstein2_1d(mu, nu)),
        )
    check(
        "criterion 7 (wasserstein oracle)",
        worst_bf <= 1e-12 and worst_1d <= 1e-12,
        f"max |assignment - bruteforce| = {worst_bf:.2e}, "
        f"max |assignment - sorted 1d| = {worst_1d:.2e}",
    )


def test_criterion_8_byte_determinism(tmp_path):
    config = {
        "seed": 8001,
        "output_dir": "",
        "model": {
            "family": "constant",
            "params": {"gamma0": 2.0, "K": 1.0, "sigma": 1.0},
        },
        "simulation": {
            "N": 2,
            "T": 0.25,
            "epsilon_list": [0.1, 0.05, 0.025],
            "Delta": 0.005,
            "replicas": 24,
        },
    }
    blobs = {}
    for label, threads in (("t1a", 1), ("t1b", 1), ("t8", 8)):
        outdir = tmp_path / label
        config["output_dir"] = str(outdir)
        cfg_file = tmp_path / f"{label}.json"
        cfg_file.write_text(json.dumps(config))
        code = dispatch(["converge", str(cfg_file), "--threads", str(threads)])
        assert code == 0
        blobs[label] = (
            (outdir / "report.json").read_bytes(),
            (outdir / "report.csv").read_bytes(),
        )
    identical = blobs["t1a"] == blobs["t1b"] == blobs["t8"]
    check(
        "criterion 8 (byte determinism)",
        identical,
        "report.json/report.csv byte-identical across reruns and threads 1 vs 8",
    )

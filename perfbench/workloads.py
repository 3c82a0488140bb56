"""The four benchmark workloads: their inputs, one timed round, and the checks.

Inputs come from ``--seed`` through ``config_doc``; the package receives
only the generated configuration document.  A round is what a user of
``smallmass converge`` (plus the diagnostics or path dump the workload adds)
waits for: the sweep, the rate fit and both report writers.  Every call into
the package goes through a module attribute at call time, so the tracer's
wrappers see it.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

import oracles

# fixed inputs of the known-fault probe (exponential velocity plateau); they do
# not depend on --seed so its failures repeat on every run
EXP_PLATEAU_SEED = 4301
EXP_PLATEAU_EPS = 0.01
EXP_PLATEAU_RATIOS = (0.5, 1.0, 4.0)
EXP_PLATEAU_FAULTY = (1.0, 4.0)   # midpoint-kernel noise variance too small
EXP_PLATEAU_REPLICAS = 500
EXP_PLATEAU_T = 1.0
EXPLICIT_PLATEAU_EPS = (0.1, 0.01)
EXPLICIT_PLATEAU_REPLICAS = 200
EXPLICIT_PLATEAU_T = 0.5
PLATEAU_TARGET = 0.25   # sigma^2 / (2 gamma) for gamma0 = 2, sigma = 1
RATE_BAND = (0.8, 1.1)

OU = {"family": "constant", "params": {"gamma0": 2.0, "K": 1.0, "sigma": 1.0}}
MEANFIELD_D1 = {
    "family": "interaction",
    "params": {"a": 2.0, "b": 0.5, "c": 1.0, "d": 1, "sigma": 1.0},
}
MEANFIELD_D4 = {
    "family": "interaction",
    "params": {
        "a": 2.0, "b": 0.5, "c": 1.0, "d": 4, "k": 4,
        "sigma": [
            [1.0, 0.3, -0.2, 0.1],
            [0.2, 0.9, 0.3, -0.1],
            [-0.1, 0.2, 1.1, 0.3],
            [0.3, -0.2, 0.1, 0.8],
        ],
    },
}
EXPLICIT = {"type": "explicit", "kappa": 20}
EPS4 = [0.1, 0.05, 0.02, 0.01]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: dict
    N: int
    replicas: int
    T: float
    epsilon_list: list
    delta_rule: dict
    Delta: float = 0.01
    x0_spread: float = 0.0          # std of the seeded initial positions
    velocity_diagnostics: bool = False
    path_eps: Optional[float] = None   # recorded coupled path dumped in the round
    oracle_eps: Optional[float] = None  # recorded path for the drift oracle only
    threads_check: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ou-replicas",
            "constant OU, N = 1, 200 replicas: tiny arrays, so the stepping loop is bound by interpreter overhead",
            OU, N=1, replicas=200, T=0.5, epsilon_list=EPS4, delta_rule=EXPLICIT,
            velocity_diagnostics=True, threads_check=True,
        ),
        Workload(
            "ou-particles",
            "constant OU, N = 256, 16 replicas: one noise stream per particle, so the keyed-noise driver and its memory dominate",
            OU, N=256, replicas=16, T=1.0, epsilon_list=EPS4, delta_rule=EXPLICIT,
        ),
        Workload(
            "meanfield-d1",
            "interaction family, d = 1, N = 64, 50 replicas, one path dump: the O(N^2) pairwise friction closures dominate",
            MEANFIELD_D1, N=64, replicas=50, T=0.1, epsilon_list=EPS4,
            delta_rule=EXPLICIT, x0_spread=0.5, path_eps=0.05,
        ),
        Workload(
            "meanfield-d4",
            "interaction family, d = k = 4, N = 32, dense sigma, exponential rule: Kronecker Sylvester solves and expm dominate",
            MEANFIELD_D4, N=32, replicas=4, T=0.05, epsilon_list=[0.1, 0.05, 0.025],
            delta_rule={"type": "exponential", "delta": 0.0025},
            x0_spread=0.5, oracle_eps=0.025,
        ),
    )
}


def config_doc(w: Workload, seed: int, output_dir: str) -> dict:
    """The run configuration for this workload and seed."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(w.name)])
    d = int(w.model["params"].get("d", 1))
    x0 = rng.normal(0.0, w.x0_spread, size=(w.N, d)).tolist() if w.x0_spread else 0.0
    return {
        "seed": int(rng.integers(1, 2**31)),
        "output_dir": output_dir,
        "model": w.model,
        "simulation": {
            "N": w.N,
            "T": w.T,
            "epsilon_list": w.epsilon_list,
            "delta_rule": w.delta_rule,
            "Delta": w.Delta,
            "replicas": w.replicas,
            "x0": x0,
            "v0": 0.0,
        },
    }


def setup(w: Workload, seed: int, output_dir: str):
    """Parse the configuration, build the model and probe its assumptions,
    as ``smallmass converge`` does before its sweep."""
    import smallmass.cli
    import smallmass.dynamics

    text = json.dumps(config_doc(w, seed, output_dir))
    cfg = smallmass.cli.parse_config(text)
    smallmass.dynamics.validate_assumptions(cfg.model, smallmass.dynamics.ProbeConfig())
    return cfg, text


@dataclass(frozen=True)
class Diagnostic:
    label: str
    eps: float
    T: float
    delta: float
    scheme: str
    replicas: int
    seed: int
    checked: bool = True
    known_fault: bool = False


def _diagnostics(w: Workload, cfg) -> list:
    if not w.velocity_diagnostics:
        return []
    # The explicit points are timed but their plateau is not checked: the
    # estimate is a sup over time of a Monte Carlo mean, biased upward, and a
    # 3 SE check on it fails on some seeds (z = 1.4 +- 0.45 over 40 seeds at
    # T = 1, and 3.34 on one of the next 17).
    runs = [
        Diagnostic(f"explicit eps={eps:g}", eps, EXPLICIT_PLATEAU_T, eps / 100.0,
                   "explicit", EXPLICIT_PLATEAU_REPLICAS, cfg.seed + i + 1,
                   checked=False)
        for i, eps in enumerate(EXPLICIT_PLATEAU_EPS)
    ]
    runs += [
        Diagnostic(f"exponential delta/eps={r:g}", EXP_PLATEAU_EPS, EXP_PLATEAU_T,
                   r * EXP_PLATEAU_EPS, "exponential", EXP_PLATEAU_REPLICAS,
                   EXP_PLATEAU_SEED, known_fault=r in EXP_PLATEAU_FAULTY)
        for r in EXP_PLATEAU_RATIOS
    ]
    return runs


def particle_steps(w: Workload, cfg) -> int:
    """Mass-eps particle steps in one round: sum over runs of R * N * T / delta."""
    steps = 0
    for eps in cfg.epsilon_list:
        delta = cfg.delta_rule.resolve(eps, cfg.Delta)
        steps += cfg.replicas * cfg.n_particles * round(cfg.T / delta)
    if w.path_eps is not None:
        steps += cfg.n_particles * round(cfg.T / cfg.delta_rule.resolve(w.path_eps, cfg.Delta))
    for diag in _diagnostics(w, cfg):
        steps += diag.replicas * round(diag.T / diag.delta)
    return steps


def run_round(w: Workload, cfg, outdir: str) -> dict:
    """One timed round; returns its outputs."""
    import smallmass

    conv, dyn = smallmass.convergence, smallmass.dynamics
    report = conv.run_convergence(
        cfg.model, cfg.epsilon_list, cfg.T, cfg.n_particles, cfg.replicas,
        cfg.seed, cfg.delta_rule, cfg.Delta, x0=cfg.x0, v0=cfg.v0,
        threads=1, validate=False,
    )
    conv.fit_rate(report)
    files = {
        "report.json": conv.report_to_json(report),
        "report.csv": conv.report_to_csv(report),
    }
    for name, text in files.items():
        with open(os.path.join(outdir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    out = {"report": report, "files": files, "diagnostics": [], "paths": None}

    for diag in _diagnostics(w, cfg):
        res = dyn.diagnostics_velocity(
            cfg.model, diag.eps, T=diag.T, delta=diag.delta,
            replicas=diag.replicas, seed=diag.seed, scheme=diag.scheme,
        )
        out["diagnostics"].append((diag, res))

    if w.path_eps is not None:
        res = dyn.simulate_coupled(
            cfg.model, w.path_eps, cfg.T, cfg.delta_rule.resolve(w.path_eps, cfg.Delta),
            cfg.Delta, cfg.n_particles, replica_id=0, seed=cfg.seed,
            x0=cfg.x0, v0=cfg.v0, scheme=cfg.delta_rule.scheme,
            kappa=cfg.delta_rule.kappa, record_paths=True,
        )
        with open(os.path.join(outdir, "paths.csv"), "w", encoding="utf-8", newline="\n") as fh:
            dyn.write_path_csv(fh, res.paths, replica_id=0)
        out["paths"] = res.paths
    return out


def fingerprint(out: dict, outdir: str) -> tuple:
    """Bytes a repeat of the round must reproduce exactly."""
    files = []
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            files.append((name, fh.read()))
    diags = [(diag.label, repr(vars(res))) for diag, res in out["diagnostics"]]
    return tuple(files), tuple(diags)


# --- checks -------------------------------------------------------------------


@dataclass
class Op:
    name: str
    ok: bool
    detail: str
    known_fault: bool = False


def _sweep_ops(w: Workload, report) -> list:
    ops = []
    err, se = report.errors, report.stderrs
    for i, eps in enumerate(report.epsilons):
        ok = math.isfinite(err[i]) and err[i] > 0.0 and math.isfinite(se[i])
        detail = f"error={err[i]:.4e} +- {se[i]:.1e}"
        if i:
            slack = math.hypot(se[i], se[i - 1])
            ok = ok and err[i] <= err[i - 1] + slack
            detail += f", <= previous {err[i - 1]:.4e} + 1 SE {slack:.1e}"
        ops.append(Op(f"sweep eps={eps:g}", ok, detail))
    if w.model["family"] == "constant":
        lo, hi = RATE_BAND
        ops.append(Op(
            "rate fit", lo <= report.slope <= hi,
            f"slope={report.slope:.4f} in [{lo}, {hi}]",
        ))
    return ops


def _plateau_ops(out: dict) -> list:
    ops = []
    for diag, res in out["diagnostics"]:
        if not diag.checked:
            continue
        ops.append(Op(
            f"velocity plateau {diag.label}",
            abs(res.sup_ev2 - PLATEAU_TARGET) <= 3.0 * res.sup_ev2_stderr,
            f"eps E|v|^2 = {res.sup_ev2:.4f} +- {res.sup_ev2_stderr:.4f} vs {PLATEAU_TARGET} at 3 SE",
            known_fault=diag.known_fault,
        ))
    return ops


def _path_csv_op(w: Workload, cfg, paths, outdir: str) -> Op:
    with open(os.path.join(outdir, "paths.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    n_times, N, d = paths.x_full.shape
    want_rows = (round(cfg.T / cfg.Delta) + 1) * cfg.n_particles * cfg.dim
    header_ok = rows[0] == ["t", "replica", "particle", "component", "x_eps", "v_eps", "x_limit"]
    body = rows[1:]
    ok = header_ok and len(body) == want_rows == n_times * N * d
    if ok:
        table = np.array(body, dtype=float).reshape(n_times, N, d, 7)
        ok = (
            np.array_equal(table[..., 0], np.broadcast_to(paths.times[:, None, None], (n_times, N, d)))
            and np.all(table[..., 1] == 0)
            and np.array_equal(table[..., 2], np.broadcast_to(np.arange(N)[None, :, None], (n_times, N, d)))
            and np.array_equal(table[..., 3], np.broadcast_to(np.arange(d), (n_times, N, d)))
            and np.array_equal(table[..., 4], paths.x_full)
            and np.array_equal(table[..., 5], paths.v_full)
            and np.array_equal(table[..., 6], paths.x_limit)
        )
    return Op("path csv", bool(ok), f"{len(body)} rows, want {want_rows}; parses back to the recorded arrays")


def _drift_ops(w: Workload, cfg, paths) -> list:
    import smallmass

    snaps = np.concatenate([paths.x_limit[::2], paths.x_full[-1:]])
    _, S, S_t, _ = smallmass.models.limit_drift_fields(cfg.model, snaps)
    S_ref, S_t_ref = oracles.interaction_drifts(w.model["params"], snaps)
    ops = []
    for name, got, want in (("S", S, S_ref), ("S~", S_t, S_t_ref)):
        gap = oracles.relative_gap(got, want)
        ops.append(Op(
            f"drift oracle {name}", gap <= oracles.DRIFT_RTOL,
            f"relative gap {gap:.2e} on {len(snaps)} snapshots (<= {oracles.DRIFT_RTOL:.0e})",
        ))
    return ops


def _euler_op(w: Workload, cfg) -> Op:
    import smallmass

    n = round(cfg.T / cfg.Delta)
    worst = 0.0
    for replica in (0, 1):
        got = smallmass.dynamics.run_limit_path(
            cfg.model, cfg.T, cfg.Delta, cfg.n_particles, replica, cfg.seed, cfg.x0
        )
        dw = smallmass.driver.NoiseDriver(cfg.seed, cfg.Delta, 1).fast_increments(
            replica, cfg.n_particles, cfg.noise_dim, n
        )
        x0 = np.zeros((cfg.n_particles, cfg.dim)) + np.asarray(cfg.x0, dtype=float)
        want = oracles.overdamped_euler(w.model["params"], cfg.Delta, dw, x0)
        worst = max(worst, oracles.relative_gap(got, want))
    return Op(
        "overdamped Euler oracle", worst <= oracles.PATH_RTOL,
        f"relative gap {worst:.2e} against run_limit_path (<= {oracles.PATH_RTOL:.0e})",
    )


def _threads_op(text: str, files: dict, outdir: str, src: str) -> Op:
    threads = max(2, len(os.sched_getaffinity(0)))
    cli_dir = os.path.join(outdir, f"cli-threads{threads}")
    cfg_file = os.path.join(outdir, "cli-config.json")
    with open(cfg_file, "w", encoding="utf-8") as fh:
        fh.write(text)
    subprocess.run(
        [sys.executable, "-m", "smallmass.cli", "converge", cfg_file,
         "--threads", str(threads), "--out", cli_dir],
        env=dict(os.environ, PYTHONPATH=src), check=True, timeout=150,
        stdout=subprocess.DEVNULL,
    )
    same = True
    for name, text_1 in files.items():
        with open(os.path.join(cli_dir, name), encoding="utf-8", newline="") as fh:
            same = same and fh.read() == text_1
    return Op(f"report bytes threads=1 vs threads={threads}", same, "second run through the CLI")


def check(w: Workload, cfg, text: str, first: dict, fingerprints: list,
          outdir: str, src: str) -> list:
    """Every checked operation of a run, on the first round's outputs."""
    import smallmass

    ops = _sweep_ops(w, first["report"])
    ops.append(Op(
        "report bytes across rounds", all(f == fingerprints[0] for f in fingerprints),
        f"{len(fingerprints)} rounds",
    ))
    ops += _plateau_ops(first)
    paths = first["paths"]
    if paths is not None:
        ops.append(_path_csv_op(w, cfg, paths, outdir))
    if w.oracle_eps is not None:
        paths = smallmass.dynamics.simulate_coupled(
            cfg.model, w.oracle_eps, cfg.T, cfg.delta_rule.resolve(w.oracle_eps, cfg.Delta),
            cfg.Delta, cfg.n_particles, replica_id=0, seed=cfg.seed,
            x0=cfg.x0, v0=cfg.v0, scheme=cfg.delta_rule.scheme,
            kappa=cfg.delta_rule.kappa, record_paths=True,
        ).paths
    if w.model["family"] == "interaction":
        ops += _drift_ops(w, cfg, paths)
    else:
        ops.append(_euler_op(w, cfg))
    if w.threads_check:
        ops.append(_threads_op(text, first["files"], outdir, src))
    return ops

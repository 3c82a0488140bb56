"""Benchmark of the coupled small-mass sweep.

    python3 perfbench/run.py --workload ou-replicas --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

Run from the root of a source checkout: the package is imported from
``src/``.  One workload per process.  With ``--trace 0`` the run reports the
end-to-end metrics (setup_s, sweep_s, steps_per_s, peak_rss_mb); with
``--trace 1`` it reports the per-layer metrics of a traced round and the
tracing overhead.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it records
the environment.  Set-up and round times are medians over the run's repeats,
each repeat scaled by the host-speed calibration timed next to it (see
``hostspeed``).
``--workload all`` runs every workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import hostspeed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES_FIRST = 3
MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 2
TRACED_SETUPS = 3
CAL_PASSES = 4

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}


def _env_record(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    blas["threads"] = {
        var: os.environ.get(var, "unset")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": commit,
    }


@contextlib.contextmanager
def _workspace():
    os.makedirs(SCRATCH, exist_ok=True)
    path = tempfile.mkdtemp(dir=SCRATCH)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)


def _setup_time(workload: str, seed: int, outdir: str) -> tuple:
    """Set-up time of a fresh process (import, parse, model build, assumption
    probe), and the time of the numpy import within it."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
         str(seed), outdir],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return tuple(float(v) for v in done.stdout.split()[-2:])


def _scaled_median(times, calibrations, reference_s) -> float:
    """Median over repeats of time / calibration, in reference-host seconds."""
    return statistics.median(t / c * reference_s for t, c in zip(times, calibrations))


def _log(label: str, values) -> None:
    sys.stderr.write(f"{label} (s): {' '.join(f'{v:.4f}' for v in values)}\n")


def _calibrate() -> list:
    return [hostspeed.calibration_s() for _ in range(CAL_PASSES)]


def _rounds(w, cfg, outdir, budget_s, min_rounds, traced=False, after_round=None):
    """An untimed round, then whole rounds until the next one would overrun
    ``budget_s``; ``after_round`` runs outside the timing after each round.
    With ``traced`` every second round is traced, so traced and untraced
    rounds share the host's state.  ``CAL_PASSES`` calibration passes run
    before the first timed round and after each one.

    Returns (wall times, calibration times, fingerprints, first outputs,
    tracers), with a tracer or None for each timed round; a round's
    calibration time is the mean of the passes just before and just after it.
    The fingerprints and first outputs include the untimed round."""
    start = time.perf_counter()
    # an untimed first round loads what the package imports or builds lazily
    first = workloads.run_round(w, cfg, outdir)
    times, prints, tracers = [], [workloads.fingerprint(first, outdir)], []
    passes = [_calibrate()]
    while len(times) < min_rounds or (
        (time.perf_counter() - start) * (len(times) + 1) / len(times) <= budget_s
    ):
        if traced and len(times) % 2:
            tracer = tracing.Tracer()
            with tracer.installed():
                out = workloads.run_round(w, cfg, outdir)
            times.append(tracer.total_s[tracing.ROOT])
        else:
            tracer = None
            t0 = time.perf_counter()
            out = workloads.run_round(w, cfg, outdir)
            times.append(time.perf_counter() - t0)
        tracers.append(tracer)
        prints.append(workloads.fingerprint(out, outdir))
        passes.append(_calibrate())
        if after_round is not None:
            after_round()
    calibrations = [statistics.mean(a + b) for a, b in zip(passes, passes[1:])]
    _log("round times", times)
    _log("round calibrations", calibrations)
    return times, calibrations, prints, first, tracers


def _layer_metrics(round_tr, setup_tr, traced_s, overhead_s, path_bytes) -> dict:
    """Per-layer metrics of one traced round and one traced set-up."""
    S, T, C, K = round_tr.self_s, round_tr.total_s, round_tr.calls, round_tr.counts
    dynamics_spans = ("run_convergence", "simulate_coupled", "diagnostics_velocity",
                      "run_limit_path", "validate_assumptions")
    fields = ("force_field", "noise_field", "friction_field", "friction_dx_field",
              "friction_dmu_field")
    m = {
        "driver.increments_s": (S["NoiseDriver.fast_increments_batch"]
                                + S["NoiseDriver.fast_increments"], "s"),
        "driver.coarse_s": (S["NoiseDriver.coarse_from_fast"], "s"),
        "driver.streams": (K["driver.streams"], "count"),
        "driver.increment_mb": (K["driver.increment_mb"], "MB"),
        "dynamics.self_s": (sum(S[k] for k in dynamics_spans), "s"),
        "dynamics.batch_calls": (C["SystemModel.force_field"], "count"),
        "dynamics.validate_s": (setup_tr.total_s["validate_assumptions"], "s"),
        "dynamics.velocity_diag_s": (T["diagnostics_velocity"], "s"),
        "models.friction_s": (S["SystemModel.friction_field"], "s"),
        "models.friction_dx_s": (S["SystemModel.friction_dx_field"], "s"),
        "models.friction_dmu_s": (S["SystemModel.friction_dmu_field"], "s"),
        "models.force_noise_s": (S["SystemModel.force_field"]
                                 + S["SystemModel.noise_field"], "s"),
        "models.field_calls": (sum(C["SystemModel." + f] for f in fields), "count"),
        "models.pair_evals": (K["models.pair_evals"], "count"),
        "models.limit_drift_s": (T["limit_drift_fields"], "s"),
        "models.limit_drift_self_s": (S["limit_drift_fields"], "s"),
        "linalg.lyapunov_s": (S["lyapunov_batch"], "s"),
        "linalg.sylvester_s": (S["sylvester_batch"], "s"),
        "linalg.matrix_solves": (K["linalg.matrix_solves"], "count"),
        "linalg.solve_flops": (K["linalg.solve_flops"], "flop"),
        "linalg.expm_s": (S["expm"], "s"),
        "linalg.expm_calls": (C["expm"], "count"),
        "measures.w2_s": (setup_tr.total_s["wasserstein2_assignment"], "s"),
        "measures.w2_calls": (setup_tr.calls["wasserstein2_assignment"], "count"),
        "convergence.sweep_s": (T["run_convergence"], "s"),
        "convergence.fit_report_s": (T["fit_rate"] + T["report_to_json"]
                                     + T["report_to_csv"], "s"),
        "cli.parse_s": (setup_tr.total_s["parse_config"], "s"),
        "cli.path_csv_s": (T["write_path_csv"], "s"),
        "cli.path_csv_bytes": (path_bytes, "bytes"),
        "bench.self_s": (S[tracing.ROOT], "s"),
        "trace.sweep_s": (traced_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = workloads.WORKLOADS[name]
    cpus = os.sched_getaffinity(0)
    with _workspace() as outdir:
        # The timed part runs on one CPU, set-up probes included, so that each
        # calibration pass sees the same CPU, and the same share of the host,
        # as the samples it scales.
        os.sched_setaffinity(0, {max(cpus)})
        if trace:
            setup_tracers = []
            for _ in range(TRACED_SETUPS):
                tr = tracing.Tracer()
                with tr.installed():
                    cfg, text = workloads.setup(w, seed, outdir)
                setup_tracers.append(tr)
            setup_tr = min(setup_tracers, key=lambda tr: tr.total_s[tracing.ROOT])
            times, calibrations, prints, first, tracers = _rounds(
                w, cfg, outdir, seconds, 2 * MIN_TRACE_ROUNDS, traced=True
            )
            rounds = list(zip(times, calibrations, tracers))
            traced = [(t, c) for t, c, tr in rounds if tr is not None]
            plain = [(t, c) for t, c, tr in rounds if tr is None]
            overhead_s = (_scaled_median(*zip(*traced), hostspeed.REFERENCE_S)
                          - _scaled_median(*zip(*plain), hostspeed.REFERENCE_S))
            best, tr = min(
                ((t, tr) for t, tr in zip(times, tracers) if tr is not None),
                key=lambda pair: pair[0],
            )
            gap = abs(sum(tr.self_s.values()) - best)
            if gap > 1e-6 * best:
                raise RuntimeError(f"layer self times miss the traced round by {gap:.3e} s")
            path_file = os.path.join(outdir, "paths.csv")
            path_bytes = os.path.getsize(path_file) if os.path.exists(path_file) else 0
            metrics = _layer_metrics(tr, setup_tr, best, overhead_s, path_bytes)
        else:
            # set-up is sampled before the rounds and after each one, so that
            # its samples span the run as the rounds do
            setups = [_setup_time(name, seed, outdir) for _ in range(SETUP_PROBES_FIRST)]
            cfg, text = workloads.setup(w, seed, outdir)
            steps = workloads.particle_steps(w, cfg)
            times, calibrations, prints, first, _ = _rounds(
                w, cfg, outdir, seconds, MIN_ROUNDS,
                after_round=lambda: setups.append(_setup_time(name, seed, outdir)),
            )
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup_times, numpy_imports = zip(*setups)
            _log("set-up times", setup_times)
            _log("set-up numpy imports", numpy_imports)
            sys.stderr.write(
                f"unscaled medians (s): set-up {statistics.median(setup_times):.4f}, "
                f"round {statistics.median(times):.4f}; fastest round {min(times):.4f}\n"
            )
            setup_s = _scaled_median(
                setup_times, numpy_imports, hostspeed.REFERENCE_NUMPY_IMPORT_S,
            )
            sweep_s = _scaled_median(times, calibrations, hostspeed.REFERENCE_S)
            values = {
                "setup_s": setup_s,
                "sweep_s": sweep_s,
                "steps_per_s": steps / sweep_s,
                "peak_rss_mb": peak_mb,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        os.sched_setaffinity(0, cpus)
        ops = workloads.check(w, cfg, text, first, prints, outdir, SRC)

    for op in ops:
        flag = "ok  " if op.ok else ("FAIL (known fault)" if op.known_fault else "FAIL")
        sys.stderr.write(f"[{flag}] {name}: {op.name}: {op.detail}\n")
    return {
        "correct": all(op.ok or op.known_fault for op in ops),
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": metrics,
    }


def run_all(args) -> int:
    results = {}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            sys.stderr.write(f"{name}: exit code {done.returncode}\n")
            return 1
        lines = done.stdout.strip().splitlines()
        env = json.loads(lines[-2])["environment"]
        results[name] = json.loads(lines[-1])
    env["workload"] = "all"
    print(f"{'workload':<14} {'metric':<28} {'value':>16} unit")
    for name, res in results.items():
        for metric, mv in res["metrics"].items():
            print(f"{name:<14} {metric:<28} {mv['value']:>16.6g} {mv['unit']}")
        print(f"{name:<14} {'operations':<28} {res['attempted']:>16d} "
              f"attempted, {res['failed']} failed, correct={res['correct']}")
    print(json.dumps({"environment": env, "results": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "smallmass", "__init__.py")):
        sys.stderr.write(f"no smallmass sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)} or 'all'")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": _env_record(args.workload, args.seed)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

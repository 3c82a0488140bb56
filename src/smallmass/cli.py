"""Command-line front end.

Subcommands: ``solve`` (matrix equations from a JSON problem file),
``validate`` (assumption probing), ``simulate`` (single-eps coupled run with
a path dump), ``converge`` (strong-error sweep plus rate fit), and
``reduce-check`` (constant-friction reduction cross-check).

Configuration is a strict JSON document: unknown keys are fatal, numbers are
re-emitted at 17 significant digits, and runs with the same config and seed
produce byte-identical outputs at any thread count.

Exit codes: 0 success, 1 validation failure, 2 numerical failure,
3 I/O failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import convergence, dynamics, linalg
from .convergence import DeltaRule, _fmt, constant_reduction_check, fit_rate, run_convergence
from .dynamics import ProbeConfig, simulate_coupled, validate_assumptions, write_path_csv
from .errors import (
    NumericalFailure,
    ParseError,
    SmallmassError,
    UsageError,
    ValidationError,
    ValidationFailure,
)
from .models import MODE_EXTENSION, MODE_STATE_ONLY, ModelSpec, SystemModel, model_library

DEFAULT_REPLICAS = 100


# --- configuration ------------------------------------------------------------


@dataclass
class RunConfig:
    seed: int
    output_dir: str
    model_spec: ModelSpec
    model: SystemModel
    dim: int
    noise_dim: int
    n_particles: int
    T: float
    epsilon: Optional[float]
    epsilon_list: Optional[list]
    delta_rule: DeltaRule
    Delta: float
    replicas: int
    x0: object
    v0: object
    mode: str


def _require_keys(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"unknown key(s) {sorted(unknown)} in {where}")


def _get_number(obj, key, where, default=None, integer=False):
    if key not in obj:
        if default is None:
            raise ValidationError(f"missing required key {key!r} in {where}")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}.{key} must be a number")
    if integer and int(value) != value:
        raise ValidationError(f"{where}.{key} must be an integer")
    return int(value) if integer else float(value)


def _parse_delta_rule(obj) -> DeltaRule:
    if obj is None:
        return DeltaRule()
    if not isinstance(obj, dict):
        raise ValidationError("simulation.delta_rule must be an object")
    _require_keys(obj, {"type", "kappa", "delta"}, "simulation.delta_rule")
    kind = obj.get("type")
    if kind == "explicit":
        if "delta" in obj:
            raise ValidationError("explicit delta_rule takes no 'delta'")
        return DeltaRule(scheme="explicit", kappa=_get_number(obj, "kappa", "delta_rule", 20.0))
    if kind == "exponential":
        if "kappa" in obj:
            raise ValidationError("exponential delta_rule takes no 'kappa'")
        return DeltaRule(scheme="exponential", delta=_get_number(obj, "delta", "delta_rule"))
    raise ValidationError("delta_rule.type must be 'explicit' or 'exponential'")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a run configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ValidationError("configuration must be a JSON object")
    _require_keys(doc, {"seed", "output_dir", "model", "simulation"}, "configuration")

    seed = _get_number(doc, "seed", "configuration", default=0, integer=True)
    output_dir = doc.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise ValidationError("output_dir must be a string")

    model_obj = doc.get("model")
    if not isinstance(model_obj, dict):
        raise ValidationError("missing required 'model' object")
    _require_keys(model_obj, {"family", "params"}, "model")
    family = model_obj.get("family")
    if not isinstance(family, str):
        raise ValidationError("model.family must be a string")
    params = model_obj.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError("model.params must be an object")
    spec = ModelSpec(family, params)
    model = model_library(spec)

    sim = doc.get("simulation")
    if not isinstance(sim, dict):
        raise ValidationError("missing required 'simulation' object")
    _require_keys(
        sim,
        {
            "d", "k", "N", "T", "epsilon", "epsilon_list", "delta_rule",
            "Delta", "replicas", "x0", "v0", "mode",
        },
        "simulation",
    )
    dim = _get_number(sim, "d", "simulation", default=model.dim, integer=True)
    noise_dim = _get_number(sim, "k", "simulation", default=model.noise_dim, integer=True)
    if dim != model.dim or noise_dim != model.noise_dim:
        raise ValidationError(
            f"simulation dimensions (d={dim}, k={noise_dim}) do not match the model "
            f"(d={model.dim}, k={model.noise_dim})"
        )
    n_particles = _get_number(sim, "N", "simulation", default=1, integer=True)
    if n_particles < 1:
        raise ValidationError("simulation.N must be >= 1")
    T = _get_number(sim, "T", "simulation", default=1.0)
    if T <= 0.0:
        raise ValidationError("simulation.T must be positive")
    Delta = _get_number(sim, "Delta", "simulation", default=0.01)
    if Delta <= 0.0:
        raise ValidationError("simulation.Delta must be positive")
    replicas = _get_number(sim, "replicas", "simulation", default=DEFAULT_REPLICAS, integer=True)

    epsilon = None
    epsilon_list = None
    if "epsilon" in sim and "epsilon_list" in sim:
        raise ValidationError("give either simulation.epsilon or simulation.epsilon_list")
    if "epsilon" in sim:
        epsilon = _get_number(sim, "epsilon", "simulation")
        if epsilon <= 0.0:
            raise ValidationError("simulation.epsilon must be positive")
    elif "epsilon_list" in sim:
        raw = sim["epsilon_list"]
        if not isinstance(raw, list) or not raw:
            raise ValidationError("simulation.epsilon_list must be a nonempty array")
        epsilon_list = convergence._check_epsilons(raw)
    else:
        raise ValidationError("simulation needs 'epsilon' or 'epsilon_list'")

    delta_rule = _parse_delta_rule(sim.get("delta_rule"))
    mode = sim.get("mode", model.mode)
    if mode not in (MODE_STATE_ONLY, MODE_EXTENSION):
        raise ValidationError("simulation.mode must be 'state-only' or 'extension'")
    if mode != model.mode:
        raise ValidationError(
            f"simulation.mode {mode!r} does not match the {family!r} family ({model.mode})"
        )

    x0 = sim.get("x0", 0.0)
    v0 = sim.get("v0", 0.0)
    for name, value in (("x0", x0), ("v0", v0)):
        try:
            dynamics._state_array(value, n_particles, int(dim), name)
        except ValidationError as exc:
            raise ValidationError(f"simulation.{name}: {exc}") from None

    # grid consistency for every eps the run will touch
    dynamics._ratio_int(T, Delta, "T/Delta")
    for eps in epsilon_list if epsilon_list is not None else [epsilon]:
        delta_rule.resolve(eps, Delta)

    return RunConfig(
        seed=seed,
        output_dir=output_dir,
        model_spec=spec,
        model=model,
        dim=int(dim),
        noise_dim=int(noise_dim),
        n_particles=int(n_particles),
        T=T,
        epsilon=epsilon,
        epsilon_list=epsilon_list,
        delta_rule=delta_rule,
        Delta=Delta,
        replicas=int(replicas),
        x0=x0,
        v0=v0,
        mode=mode,
    )


def _load_config(path: str, seed: Optional[int], out: Optional[str]) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    if seed is not None:
        cfg.seed = seed
    if out is not None:
        cfg.output_dir = out
    return cfg


# --- subcommands ---------------------------------------------------------------


def _matrix_from_json(obj, key) -> np.ndarray:
    value = obj.get(key)
    if not isinstance(value, list):
        raise ValidationError(f"problem key {key!r} must be a matrix (list of rows)")
    return np.asarray(value, dtype=float)


def _cmd_solve(args) -> int:
    with open(args.problem, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ValidationError("problem must be a JSON object")
    keys = set(doc)
    if keys == {"gamma", "Q"}:
        gamma = _matrix_from_json(doc, "gamma")
        Q = _matrix_from_json(doc, "Q")
        result = linalg.solve_lyapunov(gamma, Q)
        name = "J"
        if args.oracle:
            oracle = linalg.lyapunov_by_quadrature(gamma, Q, args.tol)
            gap = float(np.abs(result - oracle).max())
    elif keys == {"A", "B", "C"}:
        A = _matrix_from_json(doc, "A")
        B = _matrix_from_json(doc, "B")
        C = _matrix_from_json(doc, "C")
        result = linalg.solve_sylvester(A, B, C)
        name = "Y"
        if args.oracle:
            oracle = linalg.sylvester_by_quadrature(A, B, C, args.tol)
            gap = float(np.abs(result - oracle).max())
    else:
        raise ValidationError("problem must have keys {gamma, Q} or {A, B, C}")
    rows = ", ".join(
        "[" + ", ".join(_fmt(v) for v in row) + "]" for row in result
    )
    if args.oracle:
        text = f'{{"{name}": [{rows}], "oracle_gap": {_fmt(gap)}}}\n'
    else:
        text = f'{{"{name}": [{rows}]}}\n'
    _write_or_print(args.out, text)
    return 0


def _write_or_print(out: Optional[str], text: str):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_validate(args) -> int:
    cfg = _load_config(args.config, args.seed, None)
    report = validate_assumptions(cfg.model, ProbeConfig(seed=cfg.seed))
    lines = [
        f"min_sym_eig={_fmt(report.min_sym_eig)}",
        f"argmin_state=[{', '.join(_fmt(v) for v in report.argmin_state)}]",
        f"max_dmu_norm={_fmt(report.max_dmu_norm)}",
        f"n_probes={report.n_probes}",
    ]
    for key in sorted(report.lipschitz):
        lines.append(f"lipschitz_{key}={_fmt(report.lipschitz[key])}")
    lines.append("violated=false")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _resolve_single_epsilon(cfg: RunConfig) -> float:
    if cfg.epsilon is not None:
        return cfg.epsilon
    if cfg.epsilon_list and len(cfg.epsilon_list) == 1:
        return cfg.epsilon_list[0]
    raise ValidationError("this command needs a single simulation.epsilon")


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config, args.seed, args.out)
    eps = _resolve_single_epsilon(cfg)
    delta = cfg.delta_rule.resolve(eps, cfg.Delta)
    result = simulate_coupled(
        cfg.model, eps, cfg.T, delta, cfg.Delta, cfg.n_particles,
        replica_id=0, seed=cfg.seed, x0=cfg.x0, v0=cfg.v0,
        scheme=cfg.delta_rule.scheme, kappa=cfg.delta_rule.kappa,
        record_paths=True,
    )
    os.makedirs(cfg.output_dir, exist_ok=True)
    path_file = os.path.join(cfg.output_dir, "paths.csv")
    with open(path_file, "w", encoding="utf-8", newline="\n") as fh:
        write_path_csv(fh, result.paths, replica_id=0)
    sys.stdout.write(f"sup_diff={_fmt(result.sup_diff)}\n")
    sys.stdout.write(f"paths={path_file}\n")
    return 0


def _cmd_converge(args) -> int:
    cfg = _load_config(args.config, args.seed, args.out)
    if cfg.epsilon_list is None:
        raise ValidationError("converge needs simulation.epsilon_list")
    report = run_convergence(
        cfg.model, cfg.epsilon_list, cfg.T, cfg.n_particles, cfg.replicas,
        cfg.seed, cfg.delta_rule, cfg.Delta, x0=cfg.x0, v0=cfg.v0,
        threads=args.threads,
    )
    fit_rate(report)
    os.makedirs(cfg.output_dir, exist_ok=True)
    json_file = os.path.join(cfg.output_dir, "report.json")
    csv_file = os.path.join(cfg.output_dir, "report.csv")
    _write_or_print(json_file, convergence.report_to_json(report))
    _write_or_print(csv_file, convergence.report_to_csv(report))
    for eps, err, se in zip(report.epsilons, report.errors, report.stderrs):
        sys.stdout.write(f"eps={_fmt(eps)} error={_fmt(err)} stderr={_fmt(se)}\n")
    sys.stdout.write(
        f"slope={_fmt(report.slope)} intercept={_fmt(report.intercept)} r2={_fmt(report.r2)}\n"
    )
    sys.stdout.write(f"report={json_file}\n")
    return 0


def _cmd_reduce_check(args) -> int:
    cfg = _load_config(args.config, args.seed, None)
    gap = constant_reduction_check(
        cfg.model, cfg.T, cfg.seed, Delta=cfg.Delta,
        n_particles=cfg.n_particles, x0=cfg.x0,
    )
    sys.stdout.write(f"max_path_gap={_fmt(gap)}\n")
    return 0


# --- dispatch -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="smallmass", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("solve", help="solve a Lyapunov or Sylvester problem from JSON")
    p.add_argument("problem", help="JSON file with {gamma, Q} or {A, B, C}")
    p.add_argument("--oracle", action="store_true", help="cross-check with quadrature")
    p.add_argument("--tol", type=float, default=1e-8, help="quadrature tolerance")
    p.add_argument("--out", default=None, help="write result here instead of stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("validate", help="probe model assumptions")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("simulate", help="single-eps coupled run, dump paths CSV")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="override output_dir")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("converge", help="strong-error sweep and rate fit")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="override output_dir")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("reduce-check", help="constant-friction reduction cross-check")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_reduce_check)

    return parser


def dispatch(argv) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise UsageError("missing subcommand")
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 64
    except ValidationFailure as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 1
    except NumericalFailure as exc:
        sys.stderr.write(f"numerical error: {exc.__class__.__name__}: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3
    except SmallmassError as exc:  # any stragglers count as validation
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())

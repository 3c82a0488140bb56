"""Command-line front end.

Subcommands: ``solve`` (matrix equations from a JSON problem file),
``validate`` (assumption probing), ``simulate`` (single-eps coupled run with
a path dump), ``converge`` (strong-error sweep plus rate fit), and
``reduce-check`` (constant-friction reduction cross-check).

Configuration is a strict JSON document: unknown keys are fatal, numbers are
re-emitted at 17 significant digits, and runs with the same config and seed
produce byte-identical outputs; ``converge --threads`` (>= 1) has no effect.

Exit codes: 0 success, 1 validation failure, 2 numerical failure,
3 I/O failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import convergence, dynamics, linalg, models
from .convergence import (
    DeltaRule, _fmt, _preflight, constant_reduction_check, fit_rate, run_convergence,
)
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
    try:
        finite = math.isfinite(value)   # json reads Infinity, NaN
    except OverflowError:   # an integer beyond the float range
        raise ValidationError(f"{where}.{key} is beyond the float range") from None
    if not finite:
        raise ValidationError(f"{where}.{key} must be finite, got {value}")
    if integer and not (int(value) == value and -(2**63) <= value < 2**63):
        raise ValidationError(f"{where}.{key} must be a 64-bit integer, got {value}")
    return int(value) if integer else float(value)


def _check_seed(seed: int) -> int:
    """The master seed, from the configuration or from --seed, which overrides
    it: an integer in [0, 2**63), one message for both sources."""
    if seed >= 2**63:
        raise ValidationError(f"configuration.seed must be a 64-bit integer, got {seed}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return seed


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
        kappa = _get_number(obj, "kappa", "delta_rule", dynamics.DEFAULT_KAPPA)
        return DeltaRule(scheme="explicit", kappa=kappa)
    if kind == "exponential":
        if "kappa" in obj:
            raise ValidationError("exponential delta_rule takes no 'kappa'")
        return DeltaRule(scheme="exponential", delta=_get_number(obj, "delta", "delta_rule"))
    raise ValidationError("delta_rule.type must be 'explicit' or 'exponential'")


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:   # an integer literal beyond Python's digit limit
        raise ParseError(str(exc)) from None


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a run configuration document."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ValidationError("configuration must be a JSON object")
    _require_keys(doc, {"seed", "output_dir", "model", "simulation"}, "configuration")

    seed = _check_seed(_get_number(doc, "seed", "configuration", default=0, integer=True))
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
    model = model_library(ModelSpec(family, params))

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
        entries = {f"epsilon_list[{i}]": e for i, e in enumerate(raw)}
        epsilon_list = convergence._check_epsilons(
            [_get_number(entries, key, "simulation") for key in entries]
        )
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
    )


def _load_config(path: str, seed: Optional[int], out: Optional[str]) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    if seed is not None:
        cfg.seed = _check_seed(seed)
    if out is not None:
        cfg.output_dir = out
    return cfg


# --- subcommands ---------------------------------------------------------------


def _matrix_from_json(obj, key) -> np.ndarray:
    value = obj.get(key)
    if not isinstance(value, list):
        raise ValidationError(f"problem key {key!r} must be a matrix (list of rows)")
    try:
        return np.asarray(models._reals(value, key))
    except ValueError:   # ragged nesting
        raise ValidationError(f"problem key {key!r} is a ragged list") from None


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if not (math.isfinite(tol) and tol > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return tol


# operand keys, result name, solver and quadrature oracle of each problem
_PROBLEMS = (
    (("gamma", "Q"), "J", linalg.solve_lyapunov, linalg.lyapunov_by_quadrature),
    (("A", "B", "C"), "Y", linalg.solve_sylvester, linalg.sylvester_by_quadrature),
)


def _cmd_solve(args) -> int:
    with open(args.problem, "r", encoding="utf-8") as fh:
        doc = _load_json(fh.read())
    if not isinstance(doc, dict):
        raise ValidationError("problem must be a JSON object")
    for keys, name, solve, oracle in _PROBLEMS:
        if set(doc) == set(keys):
            break
    else:
        raise ValidationError("problem must have keys {gamma, Q} or {A, B, C}")
    mats = [_matrix_from_json(doc, key) for key in keys]
    result = solve(*mats)
    rows = ", ".join("[" + ", ".join(_fmt(v) for v in row) + "]" for row in result)
    text = f'"{name}": [{rows}]'
    if args.oracle:
        text += f', "oracle_gap": {_fmt(float(np.abs(result - oracle(*mats, args.tol)).max()))}'
    _write_or_print(args.out, "{" + text + "}\n")
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
    _preflight(cfg.model, cfg.delta_rule, cfg.seed)
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
    p.add_argument("--tol", type=_tolerance, default=1e-8, help="quadrature tolerance, > 0")
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
    p.add_argument("--threads", type=int, default=1, help="accepted, >= 1; no effect")
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

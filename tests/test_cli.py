import json
import tracemalloc

import numpy as np
import pytest

from smallmass import cli, convergence, driver, dynamics, linalg
from smallmass.cli import dispatch, main, parse_config
from smallmass.errors import ParseError, ValidationError
from smallmass.models import SystemModel


INTERACTION_D2 = {
    "family": "interaction",
    "params": {"a": 2.0, "b": 0.5, "c": 1.0, "d": 2, "sigma": [[1.0, 0.3], [0.0, 0.8]]},
}


# A user model whose friction [[2, c max(0, x_0)], [0, 2]] is diagonal at half
# the states and dense at the others, so one stack of exponentials mixes both.
HALF_DIAGONAL = {"family": "half-diagonal", "params": {}}


def half_diagonal_model(spec):
    c, sigma = 0.5, np.array([[1.0, 0.3], [0.0, 0.8]])

    def friction(X, S):
        g = np.zeros(X.shape + (2,))
        g[..., 0, 0] = g[..., 1, 1] = 2.0
        g[..., 0, 1] = c * np.maximum(X[..., 0], 0.0)
        return g

    def friction_dx(X, S):
        D = np.zeros(X.shape + (2, 2))
        D[..., 0, 1, 0] = c * (X[..., 0] > 0.0)
        return D

    return SystemModel(2, 2, force=lambda X, S: -X,
                       noise=lambda X, S: np.broadcast_to(sigma, X.shape + (2,)),
                       friction=friction, friction_dx=friction_dx, spec=spec)


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def base_config(**sim_overrides):
    sim = {
        "N": 1,
        "T": 0.25,
        "epsilon": 0.1,
        "Delta": 0.005,
        "replicas": 8,
        "x0": 0.0,
        "v0": 0.0,
    }
    sim.update(sim_overrides)
    return {
        "seed": 11,
        "output_dir": "out",
        "model": {"family": "constant", "params": {"gamma0": 2.0, "K": 1.0, "sigma": 1.0}},
        "simulation": sim,
    }


class TestParseConfig:
    def test_minimal_document_fills_defaults(self):
        cfg = parse_config(json.dumps({
            "model": {"family": "constant", "params": {"gamma0": 2.0}},
            "simulation": {"epsilon": 0.1},
        }))
        assert cfg.delta_rule.kappa == 20.0
        assert cfg.replicas == 100
        assert cfg.seed == 0
        assert cfg.n_particles == 1
        assert cfg.model.mode == "state-only"

    def test_rejects_unknown_key(self):
        doc = base_config()
        doc["simulation"]["gamma_matrix_typo"] = 1.0
        with pytest.raises(ValidationError, match="gamma_matrix_typo"):
            parse_config(json.dumps(doc))

    def test_rejects_increasing_epsilon_list(self):
        doc = base_config()
        del doc["simulation"]["epsilon"]
        doc["simulation"]["epsilon_list"] = [0.01, 0.1]
        with pytest.raises(ValidationError, match="strictly decreasing"):
            parse_config(json.dumps(doc))

    def test_rejects_both_epsilon_forms(self):
        doc = base_config()
        doc["simulation"]["epsilon_list"] = [0.1, 0.05]
        with pytest.raises(ValidationError):
            parse_config(json.dumps(doc))

    def test_rejects_bad_json_with_position(self):
        with pytest.raises(ParseError, match="line"):
            parse_config("{ not json }")

    def test_rejects_grid_mismatch(self):
        doc = base_config(epsilon=0.07)  # delta = 0.0035 does not divide 0.005
        with pytest.raises(Exception, match="Delta/delta"):
            parse_config(json.dumps(doc))

    def test_rejects_mode_mismatch(self):
        doc = base_config()
        doc["simulation"]["mode"] = "extension"
        with pytest.raises(ValidationError, match="mode"):
            parse_config(json.dumps(doc))

    def test_rejects_dimension_mismatch(self):
        doc = base_config(d=3)
        with pytest.raises(ValidationError, match="do not match"):
            parse_config(json.dumps(doc))

    def test_exponential_rule(self):
        doc = base_config()
        doc["simulation"]["delta_rule"] = {"type": "exponential", "delta": 0.005}
        cfg = parse_config(json.dumps(doc))
        assert cfg.delta_rule.scheme == "exponential"
        assert cfg.delta_rule.resolve(0.1, 0.005) == 0.005

    def test_parsing_allocates_nothing_of_size_n(self):
        text = json.dumps(base_config(N=10**7, x0=0.5, v0=0.0))
        tracemalloc.start()
        try:
            cfg = parse_config(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cfg.n_particles == 10**7
        assert peak < 1_000_000

    def test_explicit_rule_defaults_to_the_dynamics_kappa(self):
        cfg = parse_config(json.dumps(base_config(delta_rule={"type": "explicit"})))
        assert cfg.delta_rule.kappa == dynamics.DEFAULT_KAPPA

    def test_rejects_wrong_x0_shape(self):
        doc = base_config(x0=[0.0, 1.0, 2.0])  # d = 1, N = 1
        with pytest.raises(ValidationError, match="x0"):
            parse_config(json.dumps(doc))


class TestSolveCommand:
    def test_lyapunov_with_oracle(self, tmp_path, capsys):
        problem = write(tmp_path / "p.json", {"gamma": [[2.0]], "Q": [[9.0]]})
        code = dispatch(["solve", problem, "--oracle"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["J"] == [[2.25]]
        assert doc["oracle_gap"] <= 1e-6

    def test_sylvester_problem(self, tmp_path, capsys):
        problem = write(
            tmp_path / "p.json",
            {"A": [[-2.0]], "B": [[3.0]], "C": [[-5.0]]},
        )
        code = dispatch(["solve", problem])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["Y"] == [[1.0]]

    def test_bad_problem_keys(self, tmp_path, capsys):
        problem = write(tmp_path / "p.json", {"gamma": [[2.0]]})
        assert dispatch(["solve", problem]) == 1

    def test_non_square_matrix_rejected(self, tmp_path):
        problem = write(tmp_path / "p.json", {"gamma": [[2.0, 1.0]], "Q": [[9.0]]})
        assert dispatch(["solve", problem]) == 1

    def test_missing_file_is_io_error(self, tmp_path):
        assert dispatch(["solve", str(tmp_path / "nope.json")]) == 3

    def test_unstable_friction_is_numerical_error(self, tmp_path):
        problem = write(tmp_path / "p.json", {"gamma": [[-1.0]], "Q": [[1.0]]})
        assert dispatch(["solve", problem]) == 2

    @pytest.mark.parametrize(
        "gamma, needle",
        [
            ([[2.0, 0.0], [1.0]], "ragged"),
            ([["2.0"]], "must be a number"),
            ([[True]], "must be a number"),
            ([[None]], "must be a number"),
            ([[10**400]], "beyond the float range"),
        ],
    )
    def test_bad_matrix_entry_is_validation_error(self, tmp_path, capsys, gamma, needle):
        problem = write(tmp_path / "p.json", {"gamma": gamma, "Q": [[1.0]]})
        assert dispatch(["solve", problem, "--oracle"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and needle in err

    def test_integer_beyond_the_digit_limit_is_parse_error(self, tmp_path, capsys):
        problem = tmp_path / "p.json"
        problem.write_text('{"gamma": [[' + "1" * 5000 + ']], "Q": [[1.0]]}')
        assert dispatch(["solve", str(problem)]) == 1
        assert capsys.readouterr().err.startswith("validation error: ")

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "abc"])
    def test_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, tol):
        problem = write(tmp_path / "p.json", {"gamma": [[2.0]], "Q": [[1.0]]})
        assert dispatch(["solve", problem, "--oracle", "--tol", tol]) == 64
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("keys", [("gamma", "Q"), ("A", "B", "C")])
    def test_dimension_above_the_bound_is_rejected_before_any_solve(
        self, tmp_path, capsys, monkeypatch, keys
    ):
        monkeypatch.setattr(linalg, "_stacked_solve", None)
        eye = np.eye(linalg.MAX_DIM + 1).tolist()
        problem = write(tmp_path / "p.json", {key: eye for key in keys})
        assert dispatch(["solve", problem, "--oracle"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and "above 64" in err

    def test_largest_non_normal_problem_takes_the_spectral_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        # the spectral solve on a stack of one, with no pair left to the fallback
        monkeypatch.setattr(linalg, "_sign_solve", None)
        d = linalg.MAX_DIM
        A = np.random.default_rng(0).normal(size=(d, d))
        gamma = A + (0.5 - min(linalg.min_sym_eig(A), 0.0)) * np.eye(d)
        assert not np.allclose(gamma @ gamma.T, gamma.T @ gamma)
        problem = write(tmp_path / "p.json", {"gamma": gamma.tolist(), "Q": np.eye(d).tolist()})
        assert dispatch(["solve", problem]) == 0
        J = np.array(json.loads(capsys.readouterr().out)["J"])
        assert np.linalg.norm(gamma @ J + J @ gamma.T - np.eye(d)) <= 1e-10 * np.sqrt(d)

    def test_tolerance_below_the_float_range_is_numerical_error(self, tmp_path, capsys):
        problem = write(tmp_path / "p.json", {"gamma": [[2.0]], "Q": [[1.0]]})
        assert dispatch(["solve", problem, "--oracle", "--tol", "1e-320"]) == 2
        assert "ToleranceNotMet" in capsys.readouterr().err


class TestValidateCommand:
    def test_constant_family_passes(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.json", base_config())
        assert dispatch(["validate", cfg]) == 0
        out = capsys.readouterr().out
        assert "min_sym_eig=2" in out
        assert "violated=false" in out

    def test_every_command_probes_the_states_validate_reports_on(self, tmp_path, monkeypatch):
        # one probe per run, at the run's seed: --seed overrides the config's
        seeds = []

        def probe(model, config):
            seeds.append(config.seed)
            return dynamics.validate_assumptions(model, config)

        monkeypatch.setattr(cli, "validate_assumptions", probe)
        monkeypatch.setattr(convergence, "validate_assumptions", probe)
        doc = base_config()
        doc["output_dir"] = str(tmp_path / "out")
        cfg = write(tmp_path / "c.json", doc)
        conv = converge_config(epsilon_list=[0.1, 0.05, 0.025])
        conv = write(tmp_path / "v.json", {**conv, "output_dir": str(tmp_path / "v")})
        for argv in (["validate", cfg], ["simulate", cfg], ["converge", conv], ["reduce-check", cfg]):
            assert dispatch(argv + ["--seed", "5"]) == 0
        assert seeds == [5, 5, 5, 5]


class TestSimulateCommand:
    def test_writes_paths_csv(self, tmp_path, capsys):
        doc = base_config()
        doc["output_dir"] = str(tmp_path / "out")
        cfg = write(tmp_path / "c.json", doc)
        assert dispatch(["simulate", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("sup_diff=")
        csv = (tmp_path / "out" / "paths.csv").read_text()
        lines = csv.strip().split("\n")
        assert lines[0] == "t,replica,particle,component,x_eps,v_eps,x_limit"
        # coarse grid of T/Delta = 50 steps plus t=0, one particle, one component
        assert len(lines) == 1 + 51
        assert lines[1].split(",")[0] == "0"

    def test_one_entry_epsilon_list_runs_as_epsilon(self, tmp_path, capsys):
        outputs = []
        for sim in ({"epsilon": 0.1}, {"epsilon_list": [0.1]}):
            doc = base_config()
            del doc["simulation"]["epsilon"]
            doc["simulation"].update(sim)
            doc["output_dir"] = str(tmp_path / str(len(outputs)))
            assert dispatch(["simulate", write(tmp_path / "c.json", doc)]) == 0
            capsys.readouterr()
            outputs.append((tmp_path / str(len(outputs)) / "paths.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_blowup_exits_2(self, tmp_path):
        doc = base_config(epsilon=0.2, Delta=1.0, T=8.0, x0=1.0)
        doc["model"]["params"] = {"gamma0": 1.0, "K": 50.0, "sigma": 0.001}
        cfg = write(tmp_path / "c.json", doc)
        assert dispatch(["simulate", cfg]) == 2

    def test_stiff_friction_fails_early_without_paths(self, tmp_path, capsys):
        # the pre-flight of converge: gamma0 = 50 at kappa = 20 multiplies v by
        # -1.5 each explicit step, which once ran to NumericalBlowup (exit 2)
        doc = base_config()
        doc["model"]["params"]["gamma0"] = 50.0
        doc["output_dir"] = str(tmp_path / "out")
        assert dispatch(["simulate", write(tmp_path / "c.json", doc)]) == 1
        assert "velocity factor" in capsys.readouterr().err
        assert not (tmp_path / "out" / "paths.csv").exists()


class TestConvergeCommand:
    def converge_config(self, tmp_path, name, outdir):
        doc = base_config()
        del doc["simulation"]["epsilon"]
        doc["simulation"]["epsilon_list"] = [0.1, 0.05, 0.025]
        doc["output_dir"] = str(outdir)
        return write(tmp_path / name, doc)

    def test_reports_are_byte_identical_across_runs_and_threads(self, tmp_path, capsys):
        cfg = self.converge_config(tmp_path, "c.json", tmp_path / "o1")
        assert dispatch(["converge", cfg]) == 0
        first_json = (tmp_path / "o1" / "report.json").read_bytes()
        first_csv = (tmp_path / "o1" / "report.csv").read_bytes()

        cfg2 = self.converge_config(tmp_path, "c2.json", tmp_path / "o2")
        assert dispatch(["converge", cfg2, "--threads", "8"]) == 0
        assert (tmp_path / "o2" / "report.json").read_bytes() == first_json
        assert (tmp_path / "o2" / "report.csv").read_bytes() == first_csv

        out = capsys.readouterr().out
        assert "slope=" in out

    @pytest.mark.parametrize(
        "model, rule",
        [
            ({"family": "constant", "params": {"gamma0": 2.0, "K": 1.0, "sigma": 1.0}},
             {"type": "explicit", "kappa": 20}),
            (INTERACTION_D2, {"type": "explicit", "kappa": 20}),
            (INTERACTION_D2, {"type": "exponential", "delta": 0.0025}),
            (HALF_DIAGONAL, {"type": "exponential", "delta": 0.0025}),
        ],
        ids=["constant", "interaction-d2-explicit", "interaction-d2-exponential",
             "half-diagonal-exponential"],
    )
    def test_reports_are_byte_identical_across_replica_chunks(
        self, tmp_path, capsys, monkeypatch, model, rule
    ):
        if model is HALF_DIAGONAL:
            monkeypatch.setattr(cli, "model_library", half_diagonal_model)
        replicas = 20
        doc = base_config(
            N=3, T=0.05, Delta=0.01, replicas=replicas, delta_rule=rule
        )
        del doc["simulation"]["epsilon"]
        doc["simulation"]["epsilon_list"] = [0.1, 0.05, 0.025]
        doc["model"] = model
        # (minimum replicas per batch, states per batch, noise block bytes):
        # batches of 1, the default and R; blocks of one window, the default
        # and the whole run
        settings = [
            (1, 1, 1),
            (dynamics.BATCH_MIN_REPLICAS, dynamics.BATCH_STATES, driver.BLOCK_BYTES),
            (replicas, 1, 2**40),
            (replicas, 1, 1),
        ]
        blobs = set()
        for n, (min_replicas, states, block_bytes) in enumerate(settings):
            monkeypatch.setattr(dynamics, "BATCH_MIN_REPLICAS", min_replicas)
            monkeypatch.setattr(dynamics, "BATCH_STATES", states)
            monkeypatch.setattr(driver, "BLOCK_BYTES", block_bytes)
            doc["output_dir"] = str(tmp_path / f"run{n}")
            assert dispatch(["converge", write(tmp_path / "c.json", doc)]) == 0
            blobs.add(tuple(
                (tmp_path / f"run{n}" / name).read_bytes()
                for name in ("report.json", "report.csv")
            ))
        capsys.readouterr()
        assert len(blobs) == 1

    def test_report_schema(self, tmp_path, capsys):
        cfg = self.converge_config(tmp_path, "c.json", tmp_path / "o")
        assert dispatch(["converge", cfg]) == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "o" / "report.json").read_text())
        assert set(doc) == {
            "model", "epsilons", "errors", "stderrs",
            "slope", "intercept", "r2", "ratios",
        }
        assert doc["epsilons"] == [0.1, 0.05, 0.025]
        csv_lines = (tmp_path / "o" / "report.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "epsilon,error,stderr,ratio_sqrt"
        assert len(csv_lines) == 4

    def test_replica_count_beyond_memory_exits_1(self, tmp_path, capsys):
        self.converge_config(tmp_path, "c.json", tmp_path / "o")
        doc = json.loads((tmp_path / "c.json").read_text())
        doc["simulation"]["replicas"] = 2**62
        assert dispatch(["converge", write(tmp_path / "c.json", doc)]) == 1
        assert "replicas" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_particle_count_beyond_memory_exits_1(self, tmp_path, capsys):
        # once a traceback from numpy's MemoryError
        self.converge_config(tmp_path, "c.json", tmp_path / "o")
        doc = json.loads((tmp_path / "c.json").read_text())
        doc["simulation"]["N"] = 2**50
        assert dispatch(["converge", write(tmp_path / "c.json", doc)]) == 1
        assert "too many to hold" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_requires_epsilon_list(self, tmp_path):
        cfg = write(tmp_path / "c.json", base_config())
        assert dispatch(["converge", cfg]) == 1


class TestExplicitRuleOnStiffFriction:
    def stiff_config(self, tmp_path, gamma0):
        doc = converge_config(T=0.1, Delta=0.01, epsilon_list=[0.1, 0.05, 0.025])
        doc["model"]["params"]["gamma0"] = gamma0
        doc["output_dir"] = str(tmp_path / "out")
        return write(tmp_path / "c.json", doc)

    def test_fails_early_without_a_report(self, tmp_path, capsys):
        # gamma0 = 50 at kappa = 20: one explicit step multiplies v by -1.5
        assert dispatch(["converge", self.stiff_config(tmp_path, 50.0)]) == 1
        assert "velocity factor" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_moderate_friction_still_runs(self, tmp_path, capsys):
        assert dispatch(["converge", self.stiff_config(tmp_path, 2.0)]) == 0
        assert (tmp_path / "out" / "report.json").exists()


class TestReduceCheckCommand:
    def test_constant_model_gap_is_zero(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.json", base_config(epsilon=0.001))
        assert dispatch(["reduce-check", cfg]) == 0
        assert capsys.readouterr().out == "max_path_gap=0\n"

    def test_state_dependent_friction_rejected(self, tmp_path):
        doc = base_config()
        doc["model"] = {"family": "scalar-state", "params": {"a": 2.0, "b": 1.0}}
        cfg = write(tmp_path / "c.json", doc)
        assert dispatch(["reduce-check", cfg]) == 1


class TestDispatch:
    def test_unknown_subcommand_is_usage_error(self):
        assert dispatch(["frobnicate"]) == 64

    def test_missing_subcommand_is_usage_error(self):
        assert dispatch([]) == 64

    def test_main_entry(self, tmp_path, capsys):
        problem = write(tmp_path / "p.json", {"gamma": [[1.0]], "Q": [[2.0]]})
        assert main(["solve", problem]) == 0
        assert json.loads(capsys.readouterr().out)["J"] == [[1.0]]


def converge_config(**sim_overrides):
    doc = base_config(**sim_overrides)
    del doc["simulation"]["epsilon"]
    doc["simulation"].setdefault("epsilon_list", [0.1, 0.05])
    return doc


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def simulation(doc, **changes):
    """``doc`` with its simulation keys changed; a None value removes the key."""
    sim = {**doc["simulation"], **changes}
    return {**doc, "simulation": {k: v for k, v in sim.items() if v is not None}}


class TestRejectedBeforeCompute:
    """Bad numbers exit 1 with a validation error before any probe or sweep."""

    @pytest.fixture(autouse=True)
    def no_compute(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("compute started")

        for name in ("run_convergence", "validate_assumptions", "simulate_coupled"):
            monkeypatch.setattr(cli, name, refuse)

    def expect_validation_error(self, capsys, argv):
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ")
        assert "Traceback" not in err
        return err

    MALFORMED = {
        "document-not-object": ("validate", lambda doc: [doc], "must be a JSON object"),
        "output_dir-not-string": ("validate", lambda doc: {**doc, "output_dir": 3}, "output_dir"),
        "model-missing": ("validate", lambda doc: without(doc, "model"), "'model' object"),
        "model-not-object": ("validate", lambda doc: {**doc, "model": "constant"}, "'model' object"),
        "family-not-string": ("validate", lambda doc: {**doc, "model": {"family": 3}}, "model.family"),
        "params-not-object": ("validate", lambda doc: {
            **doc, "model": {"family": "constant", "params": [1.0]}}, "model.params"),
        "simulation-missing": ("validate", lambda doc: without(doc, "simulation"), "'simulation'"),
        "N-below-1": ("validate", lambda doc: simulation(doc, N=0), "N must be >= 1"),
        "epsilon_list-empty": ("validate", lambda doc: simulation(doc, epsilon=None, epsilon_list=[]),
                               "nonempty"),
        "no-epsilon": ("validate", lambda doc: simulation(doc, epsilon=None), "needs 'epsilon'"),
        "mode-unknown": ("validate", lambda doc: simulation(doc, mode="sideways"), "mode must be"),
        "delta_rule-not-object": ("validate", lambda doc: simulation(doc, delta_rule="explicit"),
                                  "delta_rule must be an object"),
        "explicit-with-delta": ("validate", lambda doc: simulation(
            doc, delta_rule={"type": "explicit", "delta": 0.01}), "takes no 'delta'"),
        "exponential-with-kappa": ("validate", lambda doc: simulation(
            doc, delta_rule={"type": "exponential", "delta": 0.01, "kappa": 20.0}), "takes no 'kappa'"),
        "exponential-without-delta": ("validate", lambda doc: simulation(
            doc, delta_rule={"type": "exponential"}), "'delta'"),
        "rule-type-unknown": ("validate", lambda doc: simulation(doc, delta_rule={"type": "implicit"}),
                              "delta_rule.type"),
        "problem-not-object": ("solve", lambda doc: [[[2.0]], [[1.0]]], "must be a JSON object"),
        "matrix-not-list": ("solve", lambda doc: {"gamma": 2.0, "Q": [[1.0]]}, "list of rows"),
    }

    @pytest.mark.parametrize("command, edit, needle", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_document(self, tmp_path, capsys, command, edit, needle):
        path = write(tmp_path / "c.json", edit(base_config()))
        assert needle in self.expect_validation_error(capsys, [command, path])

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("key", ["T", "Delta", "epsilon_list", "kappa", "delta", "N", "replicas"])
    def test_nonfinite_number(self, tmp_path, capsys, key, value):
        doc = converge_config()
        sim = doc["simulation"]
        if key == "epsilon_list":
            sim[key] = [0.1, value]
        elif key == "kappa":
            sim["delta_rule"] = {"type": "explicit", "kappa": value}
        elif key == "delta":
            sim["delta_rule"] = {"type": "exponential", "delta": value}
        else:
            sim[key] = value
        path = write(tmp_path / "c.json", doc)
        text = (tmp_path / "c.json").read_text()
        assert "Infinity" in text or "NaN" in text   # literals that Python's json reads
        self.expect_validation_error(capsys, ["converge", path, "--out", str(tmp_path)])

    @pytest.mark.parametrize("entry", ["abc", "0.1", True, None, [0.1]])
    def test_epsilon_list_entry_that_is_not_a_number(self, tmp_path, capsys, entry):
        doc = converge_config(epsilon_list=[0.1, entry])
        path = write(tmp_path / "c.json", doc)
        err = self.expect_validation_error(capsys, ["converge", path, "--out", str(tmp_path)])
        assert "simulation.epsilon_list[1] must be a number" in err

    @pytest.mark.parametrize(
        "family, params, needle",
        [
            ("constant", {"gamma0": 2.0, "d": 2.7}, "'d'"),
            ("constant", {"gamma0": 2.0, "k": 2.9}, "'k'"),
            ("constant", {"gamma0": 2.0, "d": True}, "'d'"),
            ("constant", {"gamma0": "2.0"}, "'gamma0'"),
            ("interaction", {"a": "2", "b": 0.5, "c": 1.0}, "'a'"),
            ("interaction", {"a": 10**400, "b": 0.5, "c": 1.0}, "'a'"),
            ("interaction", {"a": 2.0, "b": 0.5, "c": 1.0, "d": 1e9}, "'d'"),
            ("constant", {"gamma0": 2.0, "k": 65}, "'k'"),
        ],
    )
    def test_model_parameter_that_is_not_a_proper_number(
        self, tmp_path, capsys, family, params, needle
    ):
        doc = converge_config()
        doc["model"] = {"family": family, "params": params}
        path = write(tmp_path / "c.json", doc)
        err = self.expect_validation_error(capsys, ["converge", path, "--out", str(tmp_path)])
        assert f"parameter {needle}" in err

    @pytest.mark.parametrize("key", ["T", "Delta", "epsilon_list"])
    def test_number_beyond_the_float_range(self, tmp_path, capsys, key):
        doc = converge_config()
        doc["simulation"][key] = [0.1, 10**400] if key == "epsilon_list" else 10**400
        path = write(tmp_path / "c.json", doc)
        err = self.expect_validation_error(capsys, ["converge", path, "--out", str(tmp_path)])
        assert "beyond the float range" in err

    def test_integer_beyond_the_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(converge_config()).replace('"T": 0.25', '"T": ' + "1" * 5000))
        self.expect_validation_error(capsys, ["converge", str(path), "--out", str(tmp_path)])

    @pytest.mark.parametrize("n", [1e300, 2**63, 2**62])
    def test_particle_count_too_large(self, tmp_path, capsys, n):
        # 1e300 and 2**63 fall outside int64; 2**62 fits, but no array of
        # 2**62 float rows can be addressed
        path = write(tmp_path / "c.json", converge_config(N=n))
        self.expect_validation_error(capsys, ["converge", path, "--out", str(tmp_path)])

    @pytest.mark.parametrize("key", ["x0", "v0"])
    @pytest.mark.parametrize(
        "value, needle",
        [
            (True, "must be a number"),
            ("abc", "must be a number"),
            ([[0.0], [1.0, 2.0]], "ragged"),
            ([0.0, None], "must be a number"),
            (10**400, "beyond the float range"),
        ],
        ids=["bool", "string", "ragged", "null", "huge-integer"],
    )
    def test_start_state_that_is_not_numbers(self, tmp_path, capsys, key, value, needle):
        path = write(tmp_path / "c.json", base_config(N=2, **{key: value}))
        err = self.expect_validation_error(capsys, ["simulate", path, "--out", str(tmp_path)])
        assert f"simulation.{key}" in err and needle in err

    @pytest.mark.parametrize("command", ["validate", "converge"])
    def test_negative_seed_in_config(self, tmp_path, capsys, command):
        doc = converge_config()
        doc["seed"] = -3
        self.expect_validation_error(capsys, [command, write(tmp_path / "c.json", doc)])

    @pytest.mark.parametrize("command", ["validate", "simulate", "converge"])
    def test_negative_seed_on_command_line(self, tmp_path, capsys, command):
        doc = base_config() if command == "simulate" else converge_config()
        path = write(tmp_path / "c.json", doc)
        self.expect_validation_error(capsys, [command, path, "--seed", "-1"])

    @pytest.mark.parametrize("command", ["validate", "simulate", "converge"])
    @pytest.mark.parametrize("seed", [2**63, 10**40])
    def test_seed_beyond_64_bits_on_command_line_as_in_config(
        self, tmp_path, capsys, command, seed
    ):
        doc = base_config() if command == "simulate" else converge_config()
        path = write(tmp_path / "c.json", doc)
        flag = self.expect_validation_error(capsys, [command, path, "--seed", str(seed)])
        doc["seed"] = seed
        path = write(tmp_path / "big.json", doc)
        config = self.expect_validation_error(capsys, [command, path])
        assert flag == config and "64-bit integer" in flag

import json

import pytest

from smallmass import convergence
from smallmass.cli import dispatch, main, parse_config
from smallmass.errors import ParseError, ValidationError


INTERACTION_D2 = {
    "family": "interaction",
    "params": {"a": 2.0, "b": 0.5, "c": 1.0, "d": 2, "sigma": [[1.0, 0.3], [0.0, 0.8]]},
}


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
        assert cfg.mode == "state-only"

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


class TestValidateCommand:
    def test_constant_family_passes(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.json", base_config())
        assert dispatch(["validate", cfg]) == 0
        out = capsys.readouterr().out
        assert "min_sym_eig=2" in out
        assert "violated=false" in out


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

    def test_blowup_exits_2(self, tmp_path):
        doc = base_config(epsilon=0.2, Delta=1.0, T=8.0, x0=1.0)
        doc["model"]["params"] = {"gamma0": 1.0, "K": 50.0, "sigma": 0.001}
        cfg = write(tmp_path / "c.json", doc)
        assert dispatch(["simulate", cfg]) == 2


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
        ],
        ids=["constant", "interaction-d2-explicit", "interaction-d2-exponential"],
    )
    def test_reports_are_byte_identical_across_replica_chunks(
        self, tmp_path, capsys, monkeypatch, model, rule
    ):
        replicas = 20
        doc = base_config(
            N=3, T=0.05, Delta=0.01, replicas=replicas, delta_rule=rule
        )
        del doc["simulation"]["epsilon"]
        doc["simulation"]["epsilon_list"] = [0.1, 0.05, 0.025]
        doc["model"] = model
        blobs = set()
        for chunk in (1, 16, replicas):
            monkeypatch.setattr(convergence, "REPLICA_CHUNK", chunk)
            doc["output_dir"] = str(tmp_path / f"chunk{chunk}")
            assert dispatch(["converge", write(tmp_path / "c.json", doc)]) == 0
            blobs.add(tuple(
                (tmp_path / f"chunk{chunk}" / name).read_bytes()
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

    def test_requires_epsilon_list(self, tmp_path):
        cfg = write(tmp_path / "c.json", base_config())
        assert dispatch(["converge", cfg]) == 1


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

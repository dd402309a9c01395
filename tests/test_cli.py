"""Tests for the command-line interface."""

import pytest

from repro.cli.main import main
from repro.io import save_model
from repro.mdp import chain_dtmc


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    save_model(chain_dtmc(5, forward_probability=0.5), path)
    return str(path)


class TestCheck:
    def test_satisfied_returns_zero(self, chain_file, capsys):
        code = main(["check", chain_file, 'P>=0.9 [ F "goal" ]'])
        assert code == 0
        out = capsys.readouterr().out
        assert "satisfied" in out
        assert "value at initial state" in out

    def test_violated_returns_one(self, chain_file, capsys):
        code = main(["check", chain_file, 'R<=6 [ F "goal" ]'])
        assert code == 1
        assert "violated" in capsys.readouterr().out


class TestEngineAndSeedFlags:
    def test_check_dense_engine_matches_sparse(self, chain_file, capsys):
        assert main(["check", chain_file, 'P>=0.9 [ F "goal" ]']) == 0
        sparse_out = capsys.readouterr().out
        assert (
            main(
                ["check", chain_file, 'P>=0.9 [ F "goal" ]',
                 "--engine", "dense", "--seed", "3"]
            )
            == 0
        )
        assert capsys.readouterr().out == sparse_out

    def test_check_rejects_unknown_engine(self, chain_file):
        with pytest.raises(SystemExit):
            main(["check", chain_file, 'P>=0.9 [ F "goal" ]',
                  "--engine", "cursed"])

    def test_model_repair_seed_is_reproducible(self, chain_file, capsys):
        args = ["model-repair", chain_file, 'R<=6 [ F "goal" ]',
                "--engine", "dense", "--seed", "5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert "status: repaired" in first

    def test_counterexample_engine_flag(self, chain_file, capsys):
        code = main(
            ["counterexample", chain_file, 'P<=0.999 [ F "missing" ]',
             "--engine", "dense", "--seed", "1"]
        )
        assert code == 0
        assert "no counterexample" in capsys.readouterr().out


class TestBatch:
    @pytest.fixture
    def jobs_file(self, tmp_path):
        from repro.service.jobs import CheckJob, ModelRepairJob, save_jobs

        chain = chain_dtmc(5, forward_probability=0.5)
        jobs = [
            CheckJob.for_model("check-ok", chain, 'P>=0.2 [ F "goal" ]'),
            CheckJob.for_model("check-tight", chain, 'P>=0.99 [ F "goal" ]'),
            ModelRepairJob.for_model("repair", chain, 'R<=6 [ F "goal" ]'),
        ]
        path = tmp_path / "jobs.json"
        save_jobs(jobs, path)
        return str(path)

    def test_batch_end_to_end(self, jobs_file, tmp_path, capsys):
        report_file = tmp_path / "report.json"
        telemetry_file = tmp_path / "telemetry.jsonl"
        code = main(
            ["batch", jobs_file, "--workers", "0",
             "--store", str(tmp_path / "store"),
             "--telemetry", str(telemetry_file),
             "-o", str(report_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "succeeded=3" in out
        assert "telemetry counters" in out

        import json

        report = json.loads(report_file.read_text())
        assert report["statuses"] == {"succeeded": 3}
        assert {entry["job_id"] for entry in report["outcomes"]} == {
            "check-ok", "check-tight", "repair",
        }

        from repro.service.telemetry import aggregate_events, read_events

        counters = aggregate_events(read_events(telemetry_file))
        assert counters["job_end"] == 3
        assert counters["batch_end"] == 1

    def test_batch_failing_job_sets_exit_code(self, tmp_path, capsys):
        from repro.service.jobs import CheckJob, save_jobs

        chain = chain_dtmc(4, forward_probability=0.5)
        jobs = [CheckJob.for_model("bad", chain, "not a formula")]
        path = tmp_path / "jobs.json"
        save_jobs(jobs, path)
        code = main(
            ["batch", str(path), "--workers", "0", "--max-retries", "0"]
        )
        assert code == 1
        assert "failed-after-retries" in capsys.readouterr().out

    def bad_jobs_file(self, tmp_path, case):
        import json

        from repro.service.jobs import CheckJob

        path = tmp_path / "jobs.json"
        if case == "missing-file":
            return path, "No such file"
        job = CheckJob.for_model(
            "c", chain_dtmc(4, forward_probability=0.5), 'P>=0.2 [ F "goal" ]'
        ).to_dict()
        if case == "unknown-kind":
            entries, expected = [dict(job, kind="petri-net")], "unknown job kind"
        else:
            entries, expected = [job, job], "duplicate job_id 'c'"
        path.write_text(json.dumps({"jobs": entries}))
        return path, expected

    @pytest.mark.parametrize(
        "case", ["unknown-kind", "duplicate-job-id", "missing-file"]
    )
    def test_bad_jobs_file_is_one_line_and_exit_two(self, tmp_path, capsys, case):
        path, expected = self.bad_jobs_file(tmp_path, case)
        code = main(["batch", str(path), "--workers", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert expected in lines[0]


class TestModelRepair:
    def test_repair_writes_output(self, chain_file, tmp_path, capsys):
        out_file = tmp_path / "repaired.json"
        code = main(
            [
                "model-repair",
                chain_file,
                'R<=6 [ F "goal" ]',
                "-o",
                str(out_file),
            ]
        )
        assert code == 0
        assert out_file.exists()
        out = capsys.readouterr().out
        assert "status: repaired" in out
        assert "epsilon" in out
        # The written model satisfies the property.
        assert main(["check", str(out_file), 'R<=6 [ F "goal" ]']) == 0

    def test_infeasible_returns_nonzero(self, chain_file, capsys):
        code = main(
            [
                "model-repair",
                chain_file,
                'R<=6 [ F "goal" ]',
                "--max-perturbation",
                "0.001",
            ]
        )
        assert code == 1
        assert "infeasible" in capsys.readouterr().out

    def test_infeasible_prints_the_region_proof(self, chain_file, capsys):
        code = main(
            ["model-repair", chain_file, 'R<=2 [ F "goal" ]',
             "--max-perturbation", "0.001"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "status: infeasible" in out
        assert "proved infeasible: best over the repair region" in out
        assert "(interval)" in out

    def test_json_output_is_canonical_payload(self, chain_file, capsys):
        import json

        from repro.repair import RepairResult

        code = main(["model-repair", chain_file, 'R<=6 [ F "goal" ]', "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flavor"] == "model"
        assert payload["status"] == "repaired"
        rebuilt = RepairResult.from_dict(payload)
        assert rebuilt.to_dict() == payload


#: Every command that reads a model file, with the arguments after it
#: (``FORMULA`` marks the formula argument).
MODEL_COMMANDS = {
    "check": ["FORMULA"],
    "model-repair": ["FORMULA"],
    "robust-repair": ["FORMULA"],
    "cegis-repair": ["FORMULA"],
    "counterexample": ["FORMULA"],
    "rate-repair": ["--targets", "s4", "--bound", "2"],
    "export-prism": [],
}


class TestBadInput:
    """Bad model files and formulas: one stderr line and exit code 2."""

    @staticmethod
    def run(command, model, formula, capsys):
        rest = [formula if arg == "FORMULA" else arg
                for arg in MODEL_COMMANDS[command]]
        code = main([command, model] + rest)
        captured = capsys.readouterr()
        return code, captured.err.strip().splitlines()

    @pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
    def test_missing_file(self, command, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        code, err = self.run(command, missing, 'P<=0.5 [ F "goal" ]', capsys)
        assert code == 2
        assert len(err) == 1 and "cannot load model" in err[0]

    @pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
    def test_non_json_file(self, command, tmp_path, capsys):
        prism = tmp_path / "drone.pm"
        assert main(["corpus", "generate", "--family", "drone",
                     "-o", str(prism)]) == 0
        capsys.readouterr()
        code, err = self.run(command, str(prism), 'P<=0.5 [ F "goal" ]', capsys)
        assert code == 2
        assert len(err) == 1 and "drone.pm" in err[0]

    @pytest.mark.parametrize(
        "command",
        sorted(c for c, rest in MODEL_COMMANDS.items() if "FORMULA" in rest),
    )
    def test_malformed_formula(self, command, chain_file, capsys):
        code, err = self.run(command, chain_file, 'P<=0.5 [ F "goal" ', capsys)
        assert code == 2
        assert len(err) == 1 and "cannot parse formula" in err[0]


class TestRobustRepair:
    @pytest.fixture
    def coin_file(self, tmp_path):
        from repro.mdp import DTMC

        path = tmp_path / "coin.json"
        save_model(
            DTMC(
                states=["s0", "good", "bad"],
                transitions={
                    "s0": {"good": 0.5, "bad": 0.5},
                    "good": {"good": 1.0},
                    "bad": {"bad": 1.0},
                },
                initial_state="s0",
                labels={"good": {"good"}},
            ),
            path,
        )
        return str(path)

    def test_repair_writes_output(self, coin_file, tmp_path, capsys):
        out_file = tmp_path / "repaired.json"
        code = main(
            [
                "robust-repair",
                coin_file,
                'P<=0.3 [ F "good" ]',
                "--epsilon",
                "0.01",
                "-o",
                str(out_file),
            ]
        )
        assert code == 0
        assert out_file.exists()
        out = capsys.readouterr().out
        assert "robust: True" in out
        assert "worst-case margin" in out
        assert "robustly verified" in out

    def test_infeasible_returns_nonzero(self, coin_file, capsys):
        code = main(
            [
                "robust-repair",
                coin_file,
                'P<=0.3 [ F "good" ]',
                "--max-perturbation",
                "0.01",
            ]
        )
        assert code == 1
        assert "infeasible" in capsys.readouterr().out

    def test_json_output_is_canonical_payload(self, coin_file, capsys):
        import json

        from repro.repair import RepairResult

        code = main(
            ["robust-repair", coin_file, 'P<=0.3 [ F "good" ]', "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flavor"] == "robust"
        assert payload["robust"] is True
        rebuilt = RepairResult.from_dict(payload)
        assert rebuilt.to_dict() == payload

    def test_rejects_non_dtmc(self, capsys, tmp_path):
        from repro.ctmc import CTMC

        path = tmp_path / "ctmc.json"
        save_model(
            CTMC(
                states=["a", "b"],
                rates={"a": {"b": 1.0}},
                initial_state="a",
            ),
            path,
        )
        code = main(["robust-repair", str(path), 'P<=0.3 [ F "good" ]'])
        assert code == 2


class TestRateRepair:
    @pytest.fixture
    def ctmc_file(self, tmp_path):
        from repro.ctmc import CTMC

        path = tmp_path / "ctmc.json"
        save_model(
            CTMC(
                states=["s0", "s1", "done"],
                rates={"s0": {"s1": 1.0}, "s1": {"done": 0.5}},
                initial_state="s0",
                labels={"done": {"done"}},
            ),
            path,
        )
        return str(path)

    def test_repair_writes_output(self, ctmc_file, tmp_path, capsys):
        out_file = tmp_path / "repaired.json"
        code = main(
            ["rate-repair", ctmc_file, "--targets", "done",
             "--bound", "2.0", "--max-speedup", "4.0", "-o", str(out_file)]
        )
        assert code == 0
        assert out_file.exists()
        out = capsys.readouterr().out
        assert "status: repaired" in out
        assert "rate scales" in out

    def test_json_output(self, ctmc_file, capsys):
        import json

        code = main(
            ["rate-repair", ctmc_file, "--targets", "done",
             "--bound", "5.0", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flavor"] == "rate"
        assert payload["status"] == "already_satisfied"

    def test_rejects_dtmc_input(self, chain_file, capsys):
        code = main(
            ["rate-repair", chain_file, "--targets", "goal", "--bound", "1"]
        )
        assert code == 2


class TestExportPrism:
    def test_export_to_stdout(self, chain_file, capsys):
        assert main(["export-prism", chain_file]) == 0
        assert "dtmc" in capsys.readouterr().out

    def test_export_to_file(self, chain_file, tmp_path, capsys):
        out_file = tmp_path / "model.pm"
        assert main(["export-prism", chain_file, "-o", str(out_file)]) == 0
        assert out_file.read_text().startswith("dtmc")


class TestDemos:
    def test_car_demo(self, capsys):
        assert main(["car-demo"]) == 0
        out = capsys.readouterr().out
        assert "repaired theta" in out
        assert "policy safe    : True" in out

    def test_wsn_demo(self, capsys):
        assert main(["wsn-demo", "--bound", "40"]) == 0
        out = capsys.readouterr().out
        assert "status: repaired" in out


class TestCounterexample:
    def test_violated_bound_lists_paths(self, tmp_path, capsys):
        from repro.io import save_model
        from repro.mdp import DTMC

        chain = DTMC(
            states=["s", "bad", "safe"],
            transitions={
                "s": {"bad": 0.6, "safe": 0.4},
                "bad": {"bad": 1.0},
                "safe": {"safe": 1.0},
            },
            initial_state="s",
            labels={"bad": {"bad"}},
        )
        path = tmp_path / "chain.json"
        save_model(chain, path)
        code = main(["counterexample", str(path), 'P<=0.5 [ F "bad" ]'])
        assert code == 1
        out = capsys.readouterr().out
        assert "violated" in out
        assert "s -> bad" in out

    def test_holding_property_reports_none(self, chain_file, capsys):
        code = main(["counterexample", chain_file, 'P<=0.999 [ F "missing" ]'])
        assert code == 0
        assert "no counterexample" in capsys.readouterr().out

    def test_json_output_is_canonical_payload(self, tmp_path, capsys):
        import json

        from repro.checking import Counterexample
        from repro.io import save_model
        from repro.mdp import DTMC

        chain = DTMC(
            states=["s", "bad", "safe"],
            transitions={
                "s": {"bad": 0.6, "safe": 0.4},
                "bad": {"bad": 1.0},
                "safe": {"safe": 1.0},
            },
            initial_state="s",
            labels={"bad": {"bad"}},
        )
        path = tmp_path / "chain.json"
        save_model(chain, path)
        code = main(
            ["counterexample", str(path), 'P<=0.5 [ F "bad" ]', "--json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is False
        assert payload["value"] == pytest.approx(0.6)
        evidence = Counterexample.from_dict(payload["counterexample"])
        assert evidence.paths == [("s", "bad")]
        assert evidence.complete

    def test_json_when_property_holds(self, chain_file, capsys):
        import json

        code = main(
            ["counterexample", chain_file, 'P<=0.999 [ F "missing" ]',
             "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"holds": True, "counterexample": None}


class TestCegisRepair:
    @pytest.fixture
    def bad_chain_file(self, tmp_path):
        from repro.io import save_model
        from repro.mdp import DTMC

        chain = DTMC(
            states=["s", "a", "bad", "safe"],
            transitions={
                "s": {"bad": 0.5, "a": 0.5},
                "a": {"bad": 0.4, "safe": 0.6},
                "bad": {"bad": 1.0},
                "safe": {"safe": 1.0},
            },
            initial_state="s",
            labels={"bad": {"bad"}},
        )
        path = tmp_path / "bad.json"
        save_model(chain, path)
        return str(path)

    def test_repair_writes_output(self, bad_chain_file, tmp_path, capsys):
        from repro.core.api import check_model
        from repro.io import load_model

        out_file = tmp_path / "fixed.json"
        code = main(
            ["cegis-repair", bad_chain_file, 'P<=0.3 [ F "bad" ]',
             "--seed", "0", "-o", str(out_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "status: repaired" in out
        assert "verified: True" in out
        assert "iterations:" in out
        repaired = load_model(out_file)
        assert check_model(repaired, 'P<=0.3 [ F "bad" ]').holds

    def test_json_output_is_canonical_payload(self, bad_chain_file, capsys):
        import json

        from repro.repair import CegisRepairResult
        from repro.repair.results import RepairResult

        code = main(
            ["cegis-repair", bad_chain_file, 'P<=0.3 [ F "bad" ]',
             "--seed", "0", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flavor"] == "cegis"
        clone = RepairResult.from_dict(payload)
        assert isinstance(clone, CegisRepairResult)
        assert clone.status == "repaired"
        assert clone.iterations >= 1

    def test_max_iterations_flag_caps_the_loop(self, bad_chain_file, capsys):
        import json

        main(
            ["cegis-repair", bad_chain_file, 'P<=0.3 [ F "bad" ]',
             "--seed", "0", "--max-iterations", "1", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["iterations"] <= 1

    def test_rejects_non_dtmc(self, tmp_path, capsys):
        from repro.casestudies import car
        from repro.io import save_model

        path = tmp_path / "mdp.json"
        save_model(car.build_car_mdp(), path)
        code = main(["cegis-repair", str(path), 'P<=0.3 [ F "unsafe" ]'])
        assert code == 2
        assert "DTMC" in capsys.readouterr().err


class TestCorpus:
    def test_list_names_every_family(self, capsys):
        from repro.corpus import FAMILIES

        assert main(["corpus", "list"]) == 0
        out = capsys.readouterr().out
        for name in FAMILIES:
            assert name in out

    def test_list_json_is_machine_readable(self, capsys):
        import json

        assert main(["corpus", "list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {e["name"] for e in entries} >= {"grid", "network", "refuel"}
        for entry in entries:
            assert entry["kind"] in {"probability", "reward"}
            assert entry["sizes"]

    def test_generate_prints_parseable_prism(self, capsys):
        from repro.io.prism_parser import parse_prism

        assert main(["corpus", "generate", "--family", "refuel"]) == 0
        model = parse_prism(capsys.readouterr().out)
        assert model.num_states == 9  # smallest refuel size

    def test_generate_json_payload(self, capsys):
        import json

        code = main(
            ["corpus", "generate", "--family", "random",
             "--size", "12", "--seed", "7", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["family"] == "random"
        assert payload["size"] == 12
        assert payload["seed"] == 7
        assert "module random" in payload["prism"]

    def test_generate_writes_output_file(self, tmp_path, capsys):
        from repro.io.prism_parser import parse_prism

        target = tmp_path / "drone.prism"
        code = main(
            ["corpus", "generate", "--family", "drone", "-o", str(target)]
        )
        assert code == 0
        assert "written to" in capsys.readouterr().out
        assert parse_prism(target.read_text()).num_states == 9

    def test_unknown_family_exits_two(self, capsys):
        code = main(["corpus", "generate", "--family", "nonesuch"])
        assert code == 2
        err = capsys.readouterr().err
        assert "nonesuch" in err and "grid" in err

    def test_undersized_family_exits_two(self, capsys):
        code = main(
            ["corpus", "generate", "--family", "grid", "--size", "1"]
        )
        assert code == 2
        assert "smallest" in capsys.readouterr().err

    def test_seed_changes_random_family_only(self, capsys):
        assert main(
            ["corpus", "generate", "--family", "random", "--seed", "1"]
        ) == 0
        first = capsys.readouterr().out
        assert main(
            ["corpus", "generate", "--family", "random", "--seed", "2"]
        ) == 0
        assert capsys.readouterr().out != first
        assert main(
            ["corpus", "generate", "--family", "grid", "--seed", "1"]
        ) == 0
        grid_first = capsys.readouterr().out
        assert main(
            ["corpus", "generate", "--family", "grid", "--seed", "2"]
        ) == 0
        assert capsys.readouterr().out == grid_first

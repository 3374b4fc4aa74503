"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.store import ExperimentStore


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_models_parses(self):
        args = build_parser().parse_args(["list-models"])
        assert args.command == "list-models"

    def test_discover_defaults(self):
        args = build_parser().parse_args(
            ["discover", "--function", "ishigami"])
        assert args.method == "RPx"
        assert args.n == 400
        assert not args.no_tune

    def test_compare_method_list(self):
        args = build_parser().parse_args(
            ["compare", "--function", "morris", "--methods", "P, RPx"])
        assert args.methods == "P, RPx"

    def test_discover_requires_function(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["discover"])

    def test_compare_store_defaults(self):
        args = build_parser().parse_args(["compare", "--function", "morris"])
        assert args.store is None
        assert args.resume is True

    def test_no_cache_disables_resume(self):
        args = build_parser().parse_args(
            ["compare", "--function", "morris", "--store", "d", "--no-cache"])
        assert args.store == "d"
        assert args.resume is False

    def test_resume_and_no_cache_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compare", "--function", "morris", "--store", "d",
                 "--resume", "--no-cache"])

    def test_engine_and_jobs_on_every_run_subcommand(self):
        one = build_parser().parse_args(
            ["discover", "--function", "morris", "--engine", "reference",
             "--jobs", "4"])
        assert one.engine == "reference"
        assert one.jobs == 4
        many = build_parser().parse_args(
            ["compare", "--function", "morris", "--engine", "reference",
             "--jobs", "4"])
        assert many.engine == "reference"
        assert many.jobs == 4

    @pytest.mark.parametrize("engine", ["turbo", "native"])
    def test_unknown_engine_rejected(self, engine, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["discover", "--function", "morris", "--engine", engine])
        err = capsys.readouterr().err
        assert "'vectorized', 'reference'" in err

    def test_engine_defaults_to_vectorized(self):
        assert build_parser().parse_args(
            ["discover", "--function", "m"]).engine == "vectorized"
        assert build_parser().parse_args(
            ["compare", "--function", "m"]).engine == "vectorized"

    @pytest.mark.parametrize("argv", [
        ["discover", "--jobs", "-3"],
        ["compare", "--jobs", "-1"],
        ["session", "--jobs", "-2"],
        ["compare", "--jobs", "two"],
        ["discover", "--retries", "-1"],
        ["compare", "--retries", "-1"],
        ["compare", "--task-timeout", "0"],
        ["compare", "--task-timeout", "-1"],
        ["compare", "--task-timeout", "nan"],
    ])
    def test_bad_numeric_flags_exit_with_one_line_error(self, argv, capsys):
        command, flag, value = argv
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--function", "morris", flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert f"argument {flag}:" in errors[0]
        assert "Traceback" not in err

    def test_zero_jobs_still_means_all_cpus(self):
        for command in ("discover", "compare", "session"):
            args = build_parser().parse_args(
                [command, "--function", "morris", "--jobs", "0"])
            assert args.jobs == 0


class TestCommands:
    def test_list_models_output(self, capsys):
        assert main(["list-models"]) == 0
        out = capsys.readouterr().out
        assert "borehole" in out
        assert "dsgc" in out
        assert "share %" in out

    def test_discover_runs_end_to_end(self, capsys):
        code = main([
            "discover", "--function", "willetal06", "--method", "P",
            "--n", "150", "--test-size", "2000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PR AUC" in out
        assert "scenario:" in out
        assert "peeling trajectory" in out

    def test_discover_reds_no_tune(self, capsys):
        code = main([
            "discover", "--function", "willetal06", "--method", "RPf",
            "--n", "150", "--n-new", "1000", "--no-tune",
            "--test-size", "2000",
        ])
        assert code == 0
        assert "RPf" in capsys.readouterr().out

    def test_compare_prints_table(self, capsys):
        code = main([
            "compare", "--function", "willetal06", "--methods", "P,BI",
            "--n", "150", "--reps", "2", "--no-tune",
            "--test-size", "2000", "--n-new", "1000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PR AUC %" in out
        assert "runtime s" in out


class TestCompareStore:
    """The --store / --resume / --no-cache workflow end to end."""

    ARGS = ["compare", "--function", "willetal06", "--methods", "P,BI",
            "--n", "120", "--reps", "2", "--no-tune",
            "--test-size", "1500", "--n-new", "1000"]

    @staticmethod
    def _table(out: str) -> str:
        """The metric table, without the store status line and the
        wall-clock runtime row (re-measured on every fresh run)."""
        return "\n".join(
            line for line in out.splitlines()
            if not line.startswith(("store ", "runtime s")))

    def test_interrupted_grid_resumes_to_cold_result(self, capsys, tmp_path):
        store_dir = str(tmp_path / "records")

        # Cold serial reference run, no store involved.
        assert main(self.ARGS) == 0
        reference = self._table(capsys.readouterr().out)

        # Full store-backed run, then simulate an interruption by
        # deleting half of the persisted records.
        assert main(self.ARGS + ["--store", store_dir]) == 0
        first = capsys.readouterr().out
        assert "0 cached, 4 computed" in first
        assert self._table(first) == reference

        store = ExperimentStore(store_dir)
        for key in sorted(store.keys())[::2]:
            store.path_for(key).unlink()

        # --resume executes only the two missing cells and reproduces
        # the cold table exactly.
        assert main(self.ARGS + ["--store", store_dir, "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "2 cached, 2 computed" in resumed
        assert self._table(resumed) == reference

        # Now warm: nothing left to compute.
        assert main(self.ARGS + ["--store", store_dir]) == 0
        warm = capsys.readouterr().out
        assert "4 cached, 0 computed" in warm
        assert self._table(warm) == reference

    def test_no_cache_recomputes_but_still_matches(self, capsys, tmp_path):
        store_dir = str(tmp_path / "records")
        assert main(self.ARGS + ["--store", store_dir]) == 0
        cold = self._table(capsys.readouterr().out)

        assert main(self.ARGS + ["--store", store_dir, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "0 cached, 4 computed" in out
        assert self._table(out) == cold

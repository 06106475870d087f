"""Tests for the command-line interface (repro.cli)."""

import json
import re

import pytest

from repro.cli import main
from repro.problems.io import read_mkp, read_qkp
from tests.helpers import BAD_WEIGHT_ENVELOPES, qkp6_with_weights


class TestGenerate:
    def test_generate_qkp(self, tmp_path, capsys):
        path = tmp_path / "inst.qkp"
        code = main(["generate-qkp", str(path), "--items", "12",
                     "--density", "0.5", "--seed", "3"])
        assert code == 0
        instance = read_qkp(path)
        assert instance.num_items == 12
        assert "wrote" in capsys.readouterr().out

    def test_generate_mkp(self, tmp_path):
        path = tmp_path / "inst.mkp"
        code = main(["generate-mkp", str(path), "--items", "15",
                     "--knapsacks", "3"])
        assert code == 0
        instance, _ = read_mkp(path)
        assert instance.num_constraints == 3


class TestSolve:
    @pytest.fixture
    def qkp_file(self, tmp_path):
        path = tmp_path / "small.qkp"
        main(["generate-qkp", str(path), "--items", "14", "--seed", "5"])
        return path

    @pytest.fixture
    def mkp_file(self, tmp_path):
        path = tmp_path / "small.mkp"
        main(["generate-mkp", str(path), "--items", "15", "--knapsacks", "2"])
        return path

    def test_solve_saim_qkp(self, qkp_file, capsys):
        code = main(["solve", str(qkp_file),
                     "--iterations", "40", "--mcs", "150"])
        out = capsys.readouterr().out
        assert "saim[pbit]" in out
        assert code == 0
        assert "best profit" in out

    def test_solve_ga_mkp(self, mkp_file, capsys):
        assert main(["solve", str(mkp_file), "--method", "ga"]) == 0
        assert "ga[-]" in capsys.readouterr().out

    def test_solve_penalty(self, qkp_file, capsys):
        code = main(["solve", str(qkp_file), "--method", "penalty",
                     "--iterations", "20", "--mcs", "100"])
        assert code in (0, 1)  # one fixed P: feasibility is not guaranteed
        assert "penalty[pbit]" in capsys.readouterr().out

    def test_unknown_extension_rejected(self, tmp_path):
        bad = tmp_path / "instance.txt"
        bad.write_text("nonsense")
        with pytest.raises(SystemExit):
            main(["solve", str(bad)])

    def test_explicit_replicas_keep_requested_iterations(self, qkp_file, capsys,
                                                         monkeypatch):
        """--replicas reaches the solve and does not silently divide the
        user's --iterations."""
        import repro

        reports = []
        solve = repro.solve

        def recording_solve(*args, **kwargs):
            reports.append(solve(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(repro, "solve", recording_solve)
        code = main(["solve", str(qkp_file), "--replicas", "4",
                     "--iterations", "40", "--mcs", "120"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "in 40 iterations" in out
        (report,) = reports
        assert report.num_iterations == 40
        assert report.total_mcs == 40 * 4 * 120

    def test_solve_backend_option(self, qkp_file, capsys):
        code = main(["solve", str(qkp_file), "--backend", "quantized",
                     "--iterations", "40", "--mcs", "120"])
        assert "saim[quantized]" in capsys.readouterr().out
        assert code in (0, 1)

    def test_unknown_backend_rejected_cleanly(self, qkp_file):
        with pytest.raises(SystemExit, match="unknown backend"):
            main(["solve", str(qkp_file), "--backend", "gpu"])

    def test_bad_replicas_rejected_cleanly(self, qkp_file):
        with pytest.raises(SystemExit, match="--replicas must be >= 1"):
            main(["solve", str(qkp_file), "--replicas", "0"])

    def test_sweep_backends_table(self, qkp_file, capsys):
        code = main(["sweep", str(qkp_file), "--backends", "pbit,chromatic",
                     "--replicas", "1,2", "--iterations", "30",
                     "--mcs", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Solver sweep" in out
        for token in ("method", "backend", "replicas", "best_cost",
                      "feasible_pct", "chromatic", "best:"):
            assert token in out

    def test_sweep_with_workers(self, qkp_file, capsys):
        code = main(["sweep", str(qkp_file), "--backends", "pbit",
                     "--replicas", "1,2", "--workers", "2",
                     "--iterations", "20", "--mcs", "80"])
        assert code == 0
        assert "Solver sweep" in capsys.readouterr().out

    def test_sweep_methods_comparison_table(self, mkp_file, capsys):
        """Acceptance: one table comparing SAIM against the baselines."""
        code = main(["sweep", str(mkp_file), "--methods", "saim,greedy,milp",
                     "--iterations", "25", "--mcs", "80"])
        out = capsys.readouterr().out
        assert code == 0
        for token in ("saim", "greedy", "milp", "best:"):
            assert token in out

    def test_sweep_rejects_unknown_method(self, qkp_file):
        with pytest.raises(SystemExit, match="unknown method"):
            main(["sweep", str(qkp_file), "--methods", "saim,quantum"])

    def test_sweep_rejects_unknown_backend(self, qkp_file):
        with pytest.raises(SystemExit, match="unknown backend"):
            main(["sweep", str(qkp_file), "--backends", "pbit,gpu"])

    def test_sweep_rejects_bad_replicas(self, qkp_file):
        with pytest.raises(SystemExit, match=">= 1"):
            main(["sweep", str(qkp_file), "--replicas", "0,2"])

    def test_sweep_rejects_malformed_replicas(self, qkp_file):
        with pytest.raises(SystemExit, match="malformed"):
            main(["sweep", str(qkp_file), "--replicas", "1,two"])

    def test_info_lists_registries(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for token in ("methods", "backends", "saim", "greedy", "milp",
                      "pbit", "backend-free"):
            assert token in out

    def test_solve_method_greedy(self, qkp_file, capsys):
        assert main(["solve", str(qkp_file), "--method", "greedy"]) == 0
        out = capsys.readouterr().out
        assert "greedy[-]" in out
        assert "best profit" in out

    def test_solve_method_exhaustive(self, qkp_file, capsys):
        assert main(["solve", str(qkp_file), "--method", "exhaustive"]) == 0
        assert "exhaustive[-]" in capsys.readouterr().out

    def test_solve_method_milp_mkp(self, mkp_file, capsys):
        assert main(["solve", str(mkp_file), "--method", "milp"]) == 0
        assert "milp[-]" in capsys.readouterr().out

    def test_solve_method_saim_with_backend(self, qkp_file, capsys):
        code = main(["solve", str(qkp_file), "--method", "saim",
                     "--backend", "chromatic", "--replicas", "2",
                     "--iterations", "30", "--mcs", "100"])
        assert code in (0, 1)
        assert "saim[chromatic]" in capsys.readouterr().out

    def test_retired_solver_flag_is_a_usage_error(self, qkp_file):
        # Spelled in two parts so a search for the retired flag finds only
        # live references (there are none).
        retired = "--" + "solver"
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", str(qkp_file), retired, "saim"])
        assert excinfo.value.code == 2  # argparse: unrecognized argument

    def test_retired_planner_surface_is_a_usage_error(self, qkp_file):
        # The retired flag is spelled in two parts, as above.
        retired = "--model" + "-path"
        for argv in (["plan", str(qkp_file)],
                     ["solve", str(qkp_file), retired, "m.json"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2  # argparse: not a known choice

    def test_retired_program_cache_flag_is_a_usage_error(self):
        # Spelled in two parts, as above.  With "--workers 0" a serve that
        # still took the flag would exit on the worker count, never bind.
        retired = "--program" + "-max-entries"
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--workers", "0", retired, "4"])
        assert excinfo.value.code == 2  # argparse: unrecognized argument

    def test_unknown_method_rejected(self, qkp_file):
        with pytest.raises(SystemExit, match="unknown method"):
            main(["solve", str(qkp_file), "--method", "quantum"])

    def test_method_auto_is_unknown(self, qkp_file):
        with pytest.raises(SystemExit, match="unknown method 'auto'"):
            main(["solve", str(qkp_file), "--method", "auto"])

    def test_backend_free_method_rejects_backend_flags(self, qkp_file):
        with pytest.raises(SystemExit, match="backend-free"):
            main(["solve", str(qkp_file), "--method", "greedy",
                  "--backend", "pbit"])
        with pytest.raises(SystemExit, match="backend-free"):
            main(["solve", str(qkp_file), "--method", "greedy",
                  "--replicas", "2"])

    def test_backend_free_method_rejects_budget_flags(self, qkp_file):
        """--iterations/--mcs must not be silently dropped for methods
        that have no annealing budget."""
        with pytest.raises(SystemExit, match="--iterations does not apply"):
            main(["solve", str(qkp_file), "--method", "greedy",
                  "--iterations", "500"])
        with pytest.raises(SystemExit, match="--mcs does not apply"):
            main(["solve", str(qkp_file), "--method", "milp",
                  "--mcs", "200"])

    def test_max3sat_file_solves_on_higher_order(self, tmp_path, capsys):
        sat_path = tmp_path / "inst.json"
        main(["generate-max3sat", str(sat_path), "--variables", "12",
              "--clauses", "40", "--seed", "2"])
        code = main(["solve", str(sat_path), "--iterations", "10",
                     "--mcs", "40"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "saim[higher_order]" in out

    def test_solve_saim_mkp(self, mkp_file, capsys):
        code = main(["solve", str(mkp_file),
                     "--iterations", "60", "--mcs", "150"])
        out = capsys.readouterr().out
        assert "saim[pbit]" in out
        # Feasibility is not guaranteed at this tiny budget; both exits valid.
        assert code in (0, 1)


class TestDefaultMethod:
    """A bare `repro solve` is `--method saim`, pinned on seeded instances."""

    @pytest.mark.parametrize("generate, profit, selected", [
        (["generate-qkp", "--items", "14", "--seed", "5"], 2326,
         [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12]),
        (["generate-mkp", "--items", "15", "--knapsacks", "3", "--seed", "2"],
         6283, [0, 2, 4, 7, 8, 10, 11, 13]),
    ])
    def test_bare_solve_runs_saim(self, tmp_path, capsys, generate, profit,
                                  selected):
        path = tmp_path / ("inst." + generate[0].split("-")[1])
        main([generate[0], str(path), *generate[1:]])
        budget = ["--iterations", "40", "--mcs", "120"]
        capsys.readouterr()
        assert main(["solve", str(path), *budget]) == 0
        bare = capsys.readouterr().out.splitlines()
        assert main(["solve", str(path), "--method", "saim", *budget]) == 0
        explicit = capsys.readouterr().out.splitlines()
        assert bare[1].startswith("saim[pbit] on ")
        assert bare[2:] == explicit[2:] == [
            f"best profit: {profit}", f"selected items: {selected}",
        ]


class TestUnreadableInstance:
    """A bad instance file is one clean error line, never a traceback."""

    @pytest.fixture(params=["missing", "garbage-qkp", "huge-count-qkp",
                            "garbage-mkp", "bad-json", "incomplete-json",
                            "deep-json"])
    def bad_file(self, request, tmp_path):
        name, content = {
            "missing": ("absent.qkp", None),
            "garbage-qkp": ("bad.qkp", "not a qkp file\n"),
            "huge-count-qkp": ("bad.qkp", "name\n1000000000\n1 2\n"),
            "garbage-mkp": ("bad.mkp", "3 1\n1 2\n"),
            "bad-json": ("bad.json", "{not json"),
            "incomplete-json": ("bad.json", '{"kind": "qkp"}'),
            # Deeper than the JSON parser's recursion limit.
            "deep-json": ("deep.json", "[" * 100_000),
        }[request.param]
        path = tmp_path / name
        if content is not None:
            path.write_text(content)
        return path

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_clean_exit(self, bad_file, command):
        with pytest.raises(SystemExit, match=re.escape(f"cannot load {bad_file}: ")):
            main([command, str(bad_file)])

    @pytest.mark.parametrize("case", sorted(BAD_WEIGHT_ENVELOPES))
    def test_inexact_envelope_is_a_clean_exit(self, case, tmp_path):
        """An array envelope that does not decode exactly is one line
        naming the refusal; an overflowing one used to be a traceback."""
        envelope, message = BAD_WEIGHT_ENVELOPES[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(qkp6_with_weights(envelope)))
        with pytest.raises(SystemExit, match=re.escape(f"cannot load {path}: ")
                           + ".*" + re.escape(message)):
            main(["solve", str(path)])


class TestSweepStrategyFlag:
    @pytest.fixture
    def qkp_file(self, tmp_path):
        path = tmp_path / "small.qkp"
        main(["generate-qkp", str(path), "--items", "14", "--seed", "5"])
        return path

    def test_fused_single_cell_grid(self, qkp_file, capsys):
        code = main(["sweep", str(qkp_file), "--backends", "pbit",
                     "--replicas", "1", "--strategy", "fused",
                     "--iterations", "15", "--mcs", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert "strategy" in out and "fused" in out

    def test_fused_rejects_heterogeneous_grid(self, qkp_file):
        with pytest.raises(SystemExit, match="shareable"):
            main(["sweep", str(qkp_file), "--backends", "pbit,quantized",
                  "--strategy", "fused", "--iterations", "10",
                  "--mcs", "60"])

    def test_auto_strategy_runs(self, qkp_file, capsys):
        code = main(["sweep", str(qkp_file), "--backends", "pbit",
                     "--replicas", "1", "--strategy", "auto",
                     "--iterations", "15", "--mcs", "60"])
        assert code == 0
        assert "Solver sweep" in capsys.readouterr().out


class TestQuboCommands:
    """`export-qubo` and `.qubo` loading."""

    @pytest.fixture
    def qkp_file(self, tmp_path):
        path = tmp_path / "small.qkp"
        main(["generate-qkp", str(path), "--items", "14", "--seed", "5"])
        return path

    def test_export_qubo_then_solve_round_trip(self, qkp_file, tmp_path,
                                               capsys):
        qubo_path = tmp_path / "small.qubo"
        assert main(["export-qubo", str(qkp_file), str(qubo_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "slack" in out
        assert qubo_path.is_file()

        from repro.ising.qubo_io import read_qubo

        model = read_qubo(qubo_path)
        assert model.num_variables > 14  # decision + slack bits

        code = main(["solve", str(qubo_path),
                     "--iterations", "30", "--mcs", "100"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "best objective" in out or "no feasible sample" in out

    def test_export_qubo_rejects_poly(self, tmp_path):
        sat_path = tmp_path / "inst.json"
        main(["generate-max3sat", str(sat_path), "--variables", "12",
              "--clauses", "40", "--seed", "2"])
        with pytest.raises(SystemExit, match="quadratic-only") as excinfo:
            main(["export-qubo", str(sat_path), str(tmp_path / "out.qubo")])
        # The refusal names the route that does solve the file.
        assert "repro solve" in str(excinfo.value)
        assert "higher_order" in str(excinfo.value)

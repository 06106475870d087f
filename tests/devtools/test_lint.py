"""Tests for reprolint (repro.devtools.lint): AST rules, deep lint,
baseline semantics, CLI exit codes, and the self-clean gate.

Every AST rule gets one positive fixture (the violation fires) and one
negative fixture (the compliant idiom stays quiet), pinning the rules to
the contracts they encode rather than to incidental implementation
details.  The deep-lint tests poke a synthetic bad entry into the real
registry and restore it afterwards.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

import repro.api as api
from repro.devtools.lint import (
    LintConfig,
    apply_baseline,
    available_deep_checks,
    available_rules,
    load_baseline,
    load_config,
    rule_info,
    run_lint,
    save_baseline,
)
from repro.devtools.lint.__main__ import main as lint_main
from repro.devtools.lint.deep import (
    DeepContext,
    check_docstring_accuracy,
    check_factory_signatures,
    run_deep_checks,
)
from repro.devtools.lint.engine import lint_file, render_json

REPO_ROOT = Path(__file__).resolve().parents[2]


# --------------------------------------------------------------------------
# Harness: run one rule over a source snippet.

def _lint_snippet(tmp_path, rule_id, source, relpath="mod.py"):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    config = LintConfig(
        repo_root=tmp_path, baseline_path=tmp_path / "baseline.json"
    )
    findings, parse_error = lint_file(path, config, [rule_id])
    assert parse_error is None
    return findings


#: rule id -> (relpath, violating snippet, compliant snippet).
FIXTURES = {
    "RPL001": (
        "mod.py",
        """
        import numpy as np

        def jitter(x):
            return x + np.random.rand(*x.shape)
        """,
        """
        import numpy as np
        from repro.utils.rng import ensure_rng

        def jitter(x, rng=None):
            rng = ensure_rng(rng)
            return x + rng.random(x.shape)
        """,
    ),
    "RPL002": (
        "ising/kernel.py",
        """
        import time

        def anneal(machine, steps):
            start = time.perf_counter()
            for _ in range(steps):
                machine.step()
            return time.perf_counter() - start
        """,
        """
        def anneal(machine, steps):
            for _ in range(steps):
                machine.step()
            return machine.energy()
        """,
    ),
    "RPL003": (
        "mod.py",
        """
        import numpy as np

        class Machine:
            def set_fields(self, fields):
                self._fields = np.asarray(fields)
        """,
        """
        import numpy as np

        class Machine:
            def set_fields(self, fields):
                fields = np.asarray(fields)
                self._fields[...] = fields
        """,
    ),
    "RPL004": (
        "mod.py",
        """
        import numpy as np

        def load(x):
            return np.asarray(x).astype(np.float32)
        """,
        """
        import numpy as np

        def load(x):
            return np.asarray(x, dtype=np.float32)
        """,
    ),
    "RPL005": (
        "mod.py",
        """
        import numpy as np

        def account(J, s):
            energy = np.einsum("i,ij,j->", s, J, s, dtype=np.float32)
            return energy
        """,
        """
        import numpy as np

        def account(J, s):
            energy = np.einsum("i,ij,j->", s, J, s, dtype=np.float64)
            return energy
        """,
    ),
    "RPL006": (
        "mod.py",
        """
        def solve(problem, options={}):
            return options
        """,
        """
        def solve(problem, options=None):
            if options is None:
                options = {}
            return options
        """,
    ),
    "RPL007": (
        "mod.py",
        """
        def report(solver):
            return solver.finish(detail={"best": lambda: 0})
        """,
        """
        def report(solver):
            return solver.finish(detail={"best": 0.0})
        """,
    ),
    "RPL008": (
        "mod.py",
        """
        def load(path):
            try:
                return open(path).read()
            except OSError:
                pass
        """,
        """
        def load(path, errors):
            try:
                return open(path).read()
            except OSError as error:
                errors.append(error)
                return None
        """,
    ),
}


def test_every_registered_rule_has_fixtures():
    assert set(FIXTURES) == set(available_rules())


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_rule_fires_on_violation(tmp_path, rule_id):
    relpath, bad, _ = FIXTURES[rule_id]
    findings = _lint_snippet(tmp_path, rule_id, bad, relpath)
    assert findings, f"{rule_id} missed its positive fixture"
    assert all(f.rule == rule_id for f in findings)
    assert all(f.line > 0 and f.snippet for f in findings)


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_rule_quiet_on_compliant_code(tmp_path, rule_id):
    relpath, _, good = FIXTURES[rule_id]
    findings = _lint_snippet(tmp_path, rule_id, good, relpath)
    assert findings == [], f"{rule_id} false-positived: {findings}"


def test_rpl002_scoped_to_ising_paths(tmp_path):
    # The same wall-clock read outside ising/ is legal (report plumbing).
    _, bad, _ = FIXTURES["RPL002"]
    assert _lint_snippet(tmp_path, "RPL002", bad, "runtime/executor.py") == []


def test_rpl001_allows_seeded_generator_constructors(tmp_path):
    findings = _lint_snippet(tmp_path, "RPL001", """
        import numpy as np

        def make(seed):
            return np.random.default_rng(np.random.SeedSequence(seed))
        """)
    assert findings == []


def test_rpl004_flags_redundant_copy_after_astype(tmp_path):
    findings = _lint_snippet(tmp_path, "RPL004", """
        def load(x):
            return x.astype(float).copy()
        """)
    assert len(findings) == 1
    assert "redundant" in findings[0].message


def test_inline_pragma_suppresses_finding(tmp_path):
    findings = _lint_snippet(tmp_path, "RPL004", """
        import numpy as np

        def load(x):
            return np.asarray(x).astype(float)  # reprolint: disable=RPL004
        """)
    assert findings == []


def test_rule_specs_name_their_runtime_net():
    for rule_id in available_rules():
        spec = rule_info(rule_id)
        assert spec.fronts_for, f"{rule_id} must name the test it fronts for"
        assert spec.severity in ("error", "warning")


# --------------------------------------------------------------------------
# Baseline semantics: grandfather, never grow, only shrink.

def test_baseline_round_trip_and_split(tmp_path):
    _, bad, _ = FIXTURES["RPL004"]
    findings = _lint_snippet(tmp_path, "RPL004", bad)
    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, findings)
    baseline = load_baseline(baseline_path)
    assert sum(baseline.values()) == len(findings)

    # Grandfathered: same findings, nothing new, nothing stale.
    split = apply_baseline(findings, baseline)
    assert split.new == [] and split.stale == []
    assert split.baselined == findings

    # A finding beyond the baseline is new (the file cannot grow).
    extra = _lint_snippet(tmp_path, "RPL006", FIXTURES["RPL006"][1])
    split = apply_baseline(findings + extra, baseline)
    assert split.new == extra and split.stale == []

    # A fixed finding leaves its entry stale (the file must shrink).
    split = apply_baseline([], baseline)
    assert split.new == [] and split.stale == sorted(
        {f.key for f in findings}
    )


def test_baseline_keys_are_line_number_free(tmp_path):
    _, bad, _ = FIXTURES["RPL004"]
    first = _lint_snippet(tmp_path, "RPL004", bad)
    shifted = _lint_snippet(tmp_path, "RPL004", "# a new comment line\n"
                            + textwrap.dedent(bad))
    assert first[0].line != shifted[0].line
    assert first[0].key == shifted[0].key


def test_stale_baseline_entry_fails_run_lint(tmp_path):
    (tmp_path / "clean.py").write_text("x = 1\n", encoding="utf-8")
    config = LintConfig(
        repo_root=tmp_path, baseline_path=tmp_path / "baseline.json"
    )
    from collections import Counter
    result = run_lint([tmp_path], config, deep=False,
                      baseline=Counter({"RPL004::gone.py::x": 1}))
    assert result.stale == ["RPL004::gone.py::x"]
    assert not result.clean and result.exit_code == 1


def test_no_deep_run_does_not_stale_deep_entries(tmp_path):
    # Skipping the introspection pass must not misread its baseline
    # entries as fixed debt.
    (tmp_path / "clean.py").write_text("x = 1\n", encoding="utf-8")
    config = LintConfig(
        repo_root=tmp_path, baseline_path=tmp_path / "baseline.json"
    )
    from collections import Counter
    result = run_lint([tmp_path], config, deep=False,
                      baseline=Counter({"RPD104::src/x.py::export:y": 1}))
    assert result.stale == [] and result.clean


# --------------------------------------------------------------------------
# Deep lint vs a synthetic bad registry (restored afterwards).

@pytest.fixture
def scratch_registry():
    saved = dict(api._BACKENDS)
    try:
        yield api._BACKENDS
    finally:
        api._BACKENDS.clear()
        api._BACKENDS.update(saved)


def test_deep_flags_nonuniform_factory_signature(scratch_registry):
    def bad_builder():
        def factory(model, rng=None):  # no dtype knob
            raise NotImplementedError
        return factory

    api.register_backend("badback", bad_builder,
                         description="synthetic bad backend")
    ctx = DeepContext(repo_root=REPO_ROOT)
    findings = check_factory_signatures(ctx)
    bad = [f for f in findings if f.snippet == "backend:badback"]
    assert len(bad) == 1
    assert "dtype" in bad[0].message


def test_deep_flags_ghost_knob_in_description(scratch_registry):
    def builder(real_knob=None):
        def factory(model, rng=None, dtype=None):
            raise NotImplementedError
        return factory

    api.register_backend(
        "ghostback", builder,
        description="accepts 'imaginary': a knob the builder lacks",
    )
    ctx = DeepContext(repo_root=REPO_ROOT)
    findings = check_docstring_accuracy(ctx, contracts=())
    ghost = [f for f in findings if f.snippet == "backend:ghostback"]
    assert len(ghost) == 1
    assert "imaginary" in ghost[0].message


def test_deep_docstring_accuracy_catches_drift():
    ctx = DeepContext(repo_root=REPO_ROOT)
    contracts = ((__name__, "_drifted_entry_point", ("job",)),)
    findings = check_docstring_accuracy(ctx, contracts=contracts)
    drift = [f for f in findings if f.snippet == "doc:_drifted_entry_point"]
    assert len(drift) == 1
    assert "undocumented_field" in drift[0].message

    contracts = ((__name__, "_accurate_entry_point", ("job",)),)
    findings = check_docstring_accuracy(ctx, contracts=contracts)
    assert [f for f in findings if f.snippet == "doc:_accurate_entry_point"] \
        == []


def _drifted_entry_point(job):
    """Touches the job."""
    return job.undocumented_field


def _accurate_entry_point(job):
    """Reads ``undocumented_field`` off the job (documented here)."""
    return job.undocumented_field


def test_deep_checks_run_clean_on_real_registry_modulo_baseline():
    config = load_config(repo_root=REPO_ROOT)
    baseline = load_baseline(config.baseline_path)
    findings = run_deep_checks(REPO_ROOT)
    split = apply_baseline(findings, baseline)
    assert split.new == [], [f.render() for f in split.new]


# --------------------------------------------------------------------------
# CLI: exit codes, --format json, --update-baseline.

def test_cli_exit_codes_and_update_baseline(tmp_path, capsys):
    project = tmp_path / "proj"
    project.mkdir()
    (project / "pyproject.toml").write_text(
        '[tool.reprolint]\nbaseline = "baseline.json"\ndeep = false\n',
        encoding="utf-8",
    )
    bad = project / "bad.py"
    bad.write_text(textwrap.dedent(FIXTURES["RPL004"][1]), encoding="utf-8")

    config_args = ["--config", str(project / "pyproject.toml")]
    assert lint_main([str(bad), *config_args]) == 1
    capsys.readouterr()

    # Grandfather it, then the same run is clean.
    assert lint_main([str(bad), "--update-baseline", *config_args]) == 0
    capsys.readouterr()
    assert lint_main([str(bad), *config_args]) == 0
    capsys.readouterr()

    # Fixing the file leaves the entry stale -> exit 1 again.
    bad.write_text("x = 1\n", encoding="utf-8")
    assert lint_main([str(bad), *config_args]) == 1
    assert "STALE" in capsys.readouterr().out


def test_cli_json_format_is_machine_readable(tmp_path, capsys):
    project = tmp_path / "proj"
    project.mkdir()
    (project / "pyproject.toml").write_text(
        "[tool.reprolint]\ndeep = false\n", encoding="utf-8"
    )
    bad = project / "bad.py"
    bad.write_text(textwrap.dedent(FIXTURES["RPL008"][1]), encoding="utf-8")
    code = lint_main([str(bad), "--format", "json",
                      "--config", str(project / "pyproject.toml")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["clean"] is False
    assert payload["new"][0]["rule"] == "RPL008"
    # The report carries the full rule/check table for tooling.
    assert set(available_rules()) <= set(payload["rules"])
    assert set(available_deep_checks()) <= set(payload["rules"])


def test_cli_unknown_rule_is_usage_error(tmp_path, capsys):
    assert lint_main(["--rules", "RPL999", str(tmp_path)]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_config_rejects_bogus_rule_table(tmp_path, capsys):
    project = tmp_path / "proj"
    project.mkdir()
    (project / "pyproject.toml").write_text(
        "[tool.reprolint.rules.NOPE]\nenabled = false\n", encoding="utf-8"
    )
    code = lint_main([str(project), "--config",
                      str(project / "pyproject.toml")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_config_per_rule_ignore(tmp_path):
    project = tmp_path / "proj"
    (project / "legacy").mkdir(parents=True)
    (project / "pyproject.toml").write_text(textwrap.dedent("""
        [tool.reprolint]
        deep = false

        [tool.reprolint.rules.RPL004]
        ignore = ["legacy/*"]
    """), encoding="utf-8")
    bad = project / "legacy" / "old.py"
    bad.write_text(textwrap.dedent(FIXTURES["RPL004"][1]), encoding="utf-8")
    config = load_config(pyproject=project / "pyproject.toml")
    result = run_lint([project], config, deep=False)
    assert result.new == []


def test_repro_cli_forwards_to_reprolint(tmp_path, capsys):
    # `repro lint ...` forwards verbatim, including leading --options
    # (argparse REMAINDER alone would choke on them).
    from repro.cli import main as cli_main
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "RPL001" in out and "RPD104" in out

    bad = tmp_path / "bad.py"
    bad.write_text(textwrap.dedent(FIXTURES["RPL004"][1]), encoding="utf-8")
    (tmp_path / "pyproject.toml").write_text(
        "[tool.reprolint]\ndeep = false\n", encoding="utf-8"
    )
    args = [str(bad), "--config", str(tmp_path / "pyproject.toml")]
    assert cli_main(["lint", *args]) == 1
    assert cli_main(["lint", "--", *args]) == 1  # `--` separator accepted


# --------------------------------------------------------------------------
# The gate itself: src/repro is clean modulo the committed baseline.

def test_src_repro_is_clean_modulo_committed_baseline():
    config = load_config(repo_root=REPO_ROOT)
    result = run_lint([REPO_ROOT / "src" / "repro"], config)
    assert result.parse_errors == []
    assert result.stale == [], result.stale
    assert result.new == [], "\n".join(f.render() for f in result.new)
    assert result.clean and result.exit_code == 0


def test_committed_baseline_contains_only_known_debt():
    # The known debt is paid off: the grandfather file stays (the gate
    # reads it) but holds no entry, so any finding is a new one to fix.
    config = load_config(repo_root=REPO_ROOT)
    assert config.baseline_path.is_file(), "committed baseline missing"
    assert load_baseline(config.baseline_path) == {}


def test_render_json_round_trips_findings(tmp_path):
    _, bad, _ = FIXTURES["RPL001"]
    findings = _lint_snippet(tmp_path, "RPL001", bad)
    from repro.devtools.lint.engine import LintResult
    result = LintResult(findings=findings, new=findings, files_checked=1)
    payload = json.loads(render_json(result))
    assert payload["files_checked"] == 1
    assert [f["rule"] for f in payload["new"]] == ["RPL001"]

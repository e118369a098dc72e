"""Self-hosting and CLI contract tests.

The acceptance bar for the linter: the repository's own ``src``,
``tests`` and ``benchmarks`` trees lint clean under the committed
``[tool.repro-lint]`` config (every waiver inline and justified), while
a seeded fixture tree still fails — the rules are green because the
code is clean, not because they are toothless.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro.lint import build_model, load_baseline, load_config, run_paths, run_whole_program
from repro.lint.__main__ import main
from repro.lint.engine import discover_files

ROOT = pathlib.Path(__file__).resolve().parents[1]
TREE = ROOT / "tests" / "fixtures" / "lint" / "tree"
REPO_PATHS = [ROOT / "src", ROOT / "tests", ROOT / "benchmarks"]


def repo_result():
    config = load_config(ROOT)
    return run_paths(REPO_PATHS, config)


def repo_whole_program():
    config = load_config(ROOT)
    return run_whole_program(REPO_PATHS, config)


class TestSelfHost:
    def test_repo_lints_clean(self):
        result = repo_result()
        report = "\n".join(
            f"{v.path}:{v.line}: {v.code} {v.message}" for v in result.violations
        )
        assert result.exit_code == 0, f"repo must lint clean:\n{report}"

    def test_repo_run_actually_checked_files(self):
        result = repo_result()
        assert result.files_checked > 100
        # The justified telemetry waivers in campaign/events.py.
        assert result.suppressed >= 3

    def test_fixture_violations_are_excluded_not_silenced(self):
        config = load_config(ROOT)
        rel = TREE.relative_to(ROOT).as_posix() + "/rpl001_rng.py"
        assert config.is_excluded(rel)


class TestWholeProgramSelfHost:
    def test_repo_clean_under_whole_program_pass(self):
        result = repo_whole_program()
        report = "\n".join(
            f"{v.path}:{v.line}: {v.code} {v.message}" for v in result.violations
        )
        assert result.exit_code == 0, f"whole-program pass must be clean:\n{report}"

    def test_new_rules_need_zero_waivers(self):
        # The asyncio/determinism/layering packs self-host with NO
        # inline waivers: the service routes every kernel call through
        # the executor seam and spawns no detached tasks, so nothing to
        # excuse.  If a future change needs one, this count is the
        # place it gets accounted for.
        per_file = repo_result()
        combined = repo_whole_program()
        waivers_for_new_rules = combined.suppressed - per_file.suppressed
        assert waivers_for_new_rules == 0

    def test_committed_baseline_is_empty(self):
        # Ratchet floor: the repo owes zero findings.  Any regression
        # must be fixed (or explicitly waived inline), never baselined.
        counts = load_baseline(ROOT / "lint_baseline.json")
        assert counts == {}

    def test_analysis_actually_sees_the_service(self):
        # Guard against a silently-empty model making "clean" vacuous:
        # the async surface under analysis must be substantial.
        config = load_config(ROOT)
        files = discover_files([ROOT / "src"], config)
        model = build_model(list(files), config)
        coroutines = [
            f for f in model.functions.values() if f.is_coroutine
        ]
        assert len(coroutines) >= 20
        spawns = [
            s
            for f in model.functions.values()
            for s in f.task_spawns
        ]
        # Any spawned task is retained.  The batcher spawns none: batches
        # dispatch from submit() and from each batch's done-callback, so
        # check instead that its coroutine surface is under analysis.
        assert all(s.retained for s in spawns)
        batcher = "repro.service.batching.DynamicBatcher"
        for name in ("submit", "close", "run_serialized"):
            assert model.functions[f"{batcher}.{name}"].is_coroutine


class TestMainEntry:
    def test_main_on_seeded_tree(self, capsys, monkeypatch):
        monkeypatch.chdir(TREE)
        code = main([".", "--format", "json", "--jobs", "1"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["by_code"] == {
            f"RPL00{i}": 1 for i in range(1, 9)
        }

    def test_main_quiet_suppresses_body(self, capsys, monkeypatch):
        monkeypatch.chdir(TREE)
        code = main([".", "--quiet", "--jobs", "1"])
        assert code == 1
        assert capsys.readouterr().out == ""

    def test_main_disable_flag(self, capsys, monkeypatch):
        monkeypatch.chdir(TREE)
        codes = ",".join(f"RPL00{i}" for i in range(1, 9))
        assert main([".", "--disable", codes, "--jobs", "1"]) == 0

    def test_list_rules_covers_catalog(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 9):
            assert f"RPL00{i}" in out
        for i in range(10, 16):
            assert f"RPL0{i}" in out

    def test_main_all_on_repo_exits_zero(self):
        # The acceptance bar: `python -m repro.lint --all` on the repo,
        # with the committed config and baseline, is clean.
        assert main(["--all", "--quiet", "--config", str(ROOT)]) == 0


class TestModuleInvocation:
    def test_python_dash_m_exit_codes(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", ".", "--format", "json"],
            cwd=TREE,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["exit_code"] == 1

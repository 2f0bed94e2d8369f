"""RunOptions: one explicit carrier for what a run observes.

The options are built from CLI flags over ``REPRO_*`` defaults, and
nothing under ``src/repro`` reads those variables except
:mod:`repro.options` or writes ``os.environ`` at all.
"""

from __future__ import annotations

import ast
import pickle
from pathlib import Path

import pytest

import repro
from repro.cli import _run_options, build_parser, main
from repro.errors import ConfigurationError
from repro.obs.metrics import METRICS
from repro.options import (
    CHECK_ENV_VAR,
    DEFAULT_AUDIT_PERIOD_QUANTA,
    DIAGNOSE_ENV_VAR,
    METRICS_ENV_VAR,
    PLACEMENT_AUDIT_ENV_VAR,
    SOLVER_CACHE_ENV_VAR,
    RunOptions,
)

SRC = Path(repro.__file__).resolve().parent

ENV_NAMES = (CHECK_ENV_VAR, METRICS_ENV_VAR, DIAGNOSE_ENV_VAR,
             PLACEMENT_AUDIT_ENV_VAR, SOLVER_CACHE_ENV_VAR)


class TestRunOptions:
    def test_defaults_observe_nothing(self):
        options = RunOptions()
        assert not (options.check or options.metrics or options.diagnose)
        assert options.placement_audit is None
        assert options.solver_cache

    def test_from_env_reads_every_field(self):
        options = RunOptions.from_env({
            CHECK_ENV_VAR: "1", METRICS_ENV_VAR: "yes",
            DIAGNOSE_ENV_VAR: "1", PLACEMENT_AUDIT_ENV_VAR: "7",
            SOLVER_CACHE_ENV_VAR: "0",
        })
        assert options == RunOptions(check=True, metrics=True,
                                     diagnose=True, placement_audit=7,
                                     solver_cache=False)
        assert RunOptions.from_env({}) == RunOptions()

    def test_frozen_and_picklable(self):
        options = RunOptions(check=True, placement_audit=3)
        assert pickle.loads(pickle.dumps(options)) == options
        with pytest.raises(AttributeError):
            options.check = False

    @pytest.mark.parametrize("value", ["abc", "-5", "0.5", "on"])
    def test_invalid_env_audit_period_raises(self, value):
        with pytest.raises(ConfigurationError,
                           match=PLACEMENT_AUDIT_ENV_VAR):
            RunOptions.from_env({PLACEMENT_AUDIT_ENV_VAR: value})


class TestCliOptions:
    def options(self, monkeypatch, *argv, **env):
        for name in ENV_NAMES:
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        saved = METRICS.enabled
        try:
            return _run_options(build_parser().parse_args(list(argv)))
        finally:
            METRICS.enabled = saved

    def test_flags_fill_the_fields(self, monkeypatch):
        options = self.options(
            monkeypatch, "figure", "fig6", "--check", "--metrics", "m.txt",
            "--diagnose", "--placement-audit", "4", "--no-solver-cache")
        assert options == RunOptions(check=True, metrics=True,
                                     diagnose=True, placement_audit=4,
                                     solver_cache=False)

    def test_audit_period_one_is_kept(self, monkeypatch):
        options = self.options(monkeypatch, "run", "--placement-audit",
                               "1")
        assert options.placement_audit == 1

    def test_bare_audit_flag_means_default_period(self, monkeypatch):
        options = self.options(monkeypatch, "run", "--placement-audit")
        assert options.placement_audit == DEFAULT_AUDIT_PERIOD_QUANTA == 10

    def test_env_supplies_defaults_only(self, monkeypatch):
        env = {PLACEMENT_AUDIT_ENV_VAR: "3", CHECK_ENV_VAR: "1"}
        options = self.options(monkeypatch, "run", **env)
        assert options == RunOptions(check=True, placement_audit=3)
        options = self.options(monkeypatch, "run", "--placement-audit", "8",
                               **env)
        assert options.placement_audit == 8

    @pytest.mark.parametrize("period", ["0", "-5"])
    def test_invalid_audit_period_is_an_error(self, period, capsys):
        code = main(["run", "--duration", "0.05", "--scale", "0.03",
                     "--placement-audit", period])
        assert code == 1
        assert "placement-audit period" in capsys.readouterr().err


def _python_files():
    return sorted(SRC.rglob("*.py"))


def _environ_writes(tree):
    """Assignments, deletions and mutating calls on ``os.environ``."""
    def is_environ(node):
        return (isinstance(node, ast.Attribute) and node.attr == "environ"
                and isinstance(node.value, ast.Name)
                and node.value.id == "os")

    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for target in targets:
            if isinstance(target, ast.Subscript) and is_environ(
                    target.value):
                yield node.lineno
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and is_environ(node.func.value)
                and node.func.attr in ("pop", "setdefault", "update",
                                       "clear", "popitem",
                                       "__setitem__", "__delitem__")):
            yield node.lineno
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os"
                and node.func.attr in ("putenv", "unsetenv")):
            yield node.lineno


def test_no_source_writes_os_environ():
    writes = {
        str(path.relative_to(SRC)): lines
        for path in _python_files()
        if (lines := list(_environ_writes(ast.parse(path.read_text()))))
    }
    assert writes == {}


def test_env_names_appear_only_in_options():
    found = {}
    for path in _python_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)):
                names = [n for n in ENV_NAMES if n in node.value]
                if names:
                    found.setdefault(str(path.relative_to(SRC)),
                                     set()).update(names)
    assert found == {"options.py": set(ENV_NAMES)}

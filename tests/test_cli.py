"""Smoke tests for the console entry points.

PR 5 made ``repro`` (repro.api.cli) the single front door; the PR 3
``repro-sweep`` / ``repro-perf`` scripts survive as deprecated aliases.
These tests invoke the ``main([...])`` functions exactly as the
installed scripts do — with ``--smoke``-class arguments kept small
enough for CI — and pin the ``setup.py`` declarations to real import
targets so a rename can never ship a broken script.  (The ``repro``
subcommands themselves are covered in ``tests/test_api.py``.)
"""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestConsoleScriptDeclarations:
    def _declared_entry_points(self) -> dict[str, tuple[str, str]]:
        text = (REPO_ROOT / "setup.py").read_text(encoding="utf-8")
        entries = re.findall(r'"([\w-]+)\s*=\s*([\w.]+):(\w+)"', text)
        assert entries, "no console_scripts found in setup.py"
        return {name: (module, func) for name, module, func in entries}

    def test_declared_targets_resolve(self):
        declared = self._declared_entry_points()
        assert set(declared) == {"repro"}
        for name, (module_name, func_name) in declared.items():
            module = importlib.import_module(module_name)
            target = getattr(module, func_name)
            assert callable(target), name


class TestPerfCli:
    def test_tiny_cell_writes_json(self, capsys, tmp_path):
        from repro.harness.perf import main

        out = tmp_path / "perf.json"
        code = main([
            "--benchmark", "mcf", "--mechanism", "baseline",
            "--warmup", "256", "--measure", "1024",
            "--repeats", "1", "--json", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["warmup"] == 256 and report["measure"] == 1024
        assert "baseline" in report["aggregate_kips"]
        assert report["aggregate_kips"]["baseline"] > 0
        samples = report["samples"]
        assert [s["benchmark"] for s in samples] == ["mcf"]
        rendered = capsys.readouterr().out
        assert "mcf" in rendered and "baseline" in rendered

    def test_sampled_flag_times_sampled_runs(self, capsys):
        from repro.harness.perf import main

        code = main([
            "--benchmark", "mcf", "--mechanism", "rsep-realistic",
            "--warmup", "512", "--measure", "2000", "--repeats", "1",
            "--sampled", "--interval", "1000", "--detail-ratio", "0.25",
            "--json", "-",
        ])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["aggregate_kips"]["rsep-realistic"] > 0

    def test_unknown_mechanism_is_rejected(self):
        from repro.harness.perf import main

        with pytest.raises(SystemExit):
            main(["--mechanism", "definitely-not-a-preset"])


class TestSweepCli:
    def test_no_arguments_prints_help(self, capsys):
        from repro.harness.sweep import main

        assert main([]) == 2
        assert "--smoke" in capsys.readouterr().out

    def test_smoke_gate_passes(self, capsys):
        # The actual CI gate: cold == memoised == warm-store over a
        # private temporary store.  (The sampled extension has its own
        # CI invocation; it is too slow for the tier-1 suite.)
        from repro.harness.sweep import main

        assert main(["--smoke"]) == 0
        out = capsys.readouterr().out
        assert "sweep smoke: cold == memoised == warm-store" in out


class TestFrontDoorImports:
    def test_front_door_never_imports_numpy(self):
        # The simulator is pure Python: neither the CLI module graph nor
        # a sampled run (functional warming included) may pull NumPy in.
        import os
        import subprocess
        import sys

        script = (
            "import sys\n"
            "import repro.api.cli\n"
            "from repro.api import ExperimentSpec, Session, StoreSpec, "
            "WindowSpec\n"
            "from repro.sampling import SamplingConfig\n"
            "spec = ExperimentSpec(benchmarks=('mcf',), "
            "window=WindowSpec(2000, 20000), "
            "sampling=SamplingConfig(enabled=True), "
            "store=StoreSpec(enabled=False))\n"
            "result = Session.for_spec(spec).run(spec)\n"
            "assert result.outcome('mcf', 'baseline').merged_stats[0]"
            ".warmed > 0\n"
            "print('numpy' in sys.modules)\n"
        )
        env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_TRACE_STORE"] = "off"
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=300, check=True,
        )
        assert completed.stdout.strip() == "False"

"""Integration tests for the ``python -m repro lint`` gate.

The contract mirrored in CI: the committed tree is clean under an empty
baseline, and seeding one violation per rule family flips the exit code.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.devtools import lint as lintmod

PACKAGE_DIR = Path(repro.__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parents[1]

#: One minimal violating snippet per rule family (all are plain library
#: code once copied outside the exempt directories).
SEEDED_VIOLATIONS = {
    "LDP-R001": """
        import numpy as np
        RNG = np.random.default_rng(42)
        """,
    "LDP-R002": """
        import math

        def variance(epsilon):
            return math.exp(epsilon)
        """,
    "LDP-R003": """
        class Mechanism:
            def partial_fit(self, items):
                self._collect(items)
                self.materialize()
        """,
    "LDP-R004": """
        import time

        async def worker():
            time.sleep(1)
        """,
    "LDP-R005": """
        class HalfSnapshot:
            def state_dict(self):
                return {}
        """,
    "LDP-R006": """
        def answer(start, end):
            raise ValueError("bad range")
        """,
}


class TestTreeIsClean:
    def test_lint_paths_finds_nothing_in_the_package(self):
        findings, stats = lintmod.lint_paths([PACKAGE_DIR])
        assert findings == [], "\n".join(f.render() for f in findings)
        assert stats["files"] > 50

    def test_cli_default_paths_exit_zero(self, capsys):
        assert lintmod.main([]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_committed_baseline_is_empty_and_accepted(self, capsys):
        baseline = REPO_ROOT / "LINT_BASELINE.json"
        assert baseline.exists()
        assert json.loads(baseline.read_text())["findings"] == []
        assert lintmod.main(["--baseline", str(baseline), str(PACKAGE_DIR)]) == 0

    def test_python_m_repro_lint_subprocess_exits_zero(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(PACKAGE_DIR.parent) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(PACKAGE_DIR)],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 finding(s)" in result.stdout


class TestSeededViolations:
    @pytest.mark.parametrize("rule", sorted(SEEDED_VIOLATIONS))
    def test_each_rule_family_flips_the_gate(self, rule, tmp_path, capsys):
        package_copy = tmp_path / "tree"
        package_copy.mkdir()
        seeded = package_copy / f"seeded_{rule.lower().replace('-', '_')}.py"
        seeded.write_text(
            textwrap.dedent(SEEDED_VIOLATIONS[rule]), encoding="utf-8"
        )
        assert lintmod.main([str(package_copy)]) == 1
        out = capsys.readouterr().out
        assert rule in out

    def test_seeded_violation_in_real_package_layout(self, tmp_path, capsys):
        """A violation dropped next to the real sources is caught when the
        tree and the extra file are linted together (what CI would see)."""
        seeded = tmp_path / "seeded_core_module.py"
        seeded.write_text(
            "import numpy as np\nRNG = np.random.default_rng(13)\n",
            encoding="utf-8",
        )
        assert lintmod.main([str(PACKAGE_DIR), str(seeded)]) == 1
        out = capsys.readouterr().out
        assert "LDP-R001" in out and "seeded_core_module" in out

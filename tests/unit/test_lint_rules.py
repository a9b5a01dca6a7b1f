"""Unit tests for :mod:`repro.devtools.lint` — one good/bad fixture pair per
rule family, plus suppression, baseline and CLI behavior.

Fixture files live in pytest temp dirs.  Paths without a ``repro``
component count as plain library code (no directory exemption applies),
which is exactly what these snippets want; the scoping tests build a fake
``repro/<subpackage>/`` layout explicitly.
"""

import json
import textwrap

import pytest

from repro.devtools import lint as lintmod


def lint_source(tmp_path, source, name="mod.py", baseline=None):
    """Write ``source`` under ``tmp_path`` and lint the whole directory."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    findings, stats = lintmod.lint_paths([tmp_path], baseline=baseline)
    return findings, stats


def rules_of(findings):
    return sorted({f.rule for f in findings})


class TestRngHygieneR001:
    def test_legacy_global_state_calls_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            import numpy as np

            def sample():
                np.random.seed(0)
                return np.random.randint(10)
            """,
        )
        assert rules_of(findings) == ["LDP-R001"]
        assert len(findings) == 2

    def test_hardcoded_default_rng_seed_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            import numpy as np

            RNG = np.random.default_rng(42)
            """,
        )
        assert rules_of(findings) == ["LDP-R001"]
        assert "hard-coded RNG seed" in findings[0].message

    def test_generator_parameter_flow_is_clean(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            import numpy as np

            def sample(rng, random_state=None):
                rng = np.random.default_rng(random_state)
                seq = np.random.SeedSequence([1, 2])
                return rng.integers(10)
            """,
        )
        assert findings == []

    def test_experiments_and_data_dirs_are_exempt(self, tmp_path):
        bad = """
        import numpy as np
        RNG = np.random.default_rng(7)
        """
        findings, _ = lint_source(tmp_path, bad, name="repro/experiments/gen.py")
        assert findings == []
        findings, _ = lint_source(tmp_path, bad, name="repro/data/synth.py")
        assert findings == []
        findings, _ = lint_source(tmp_path, bad, name="repro/core/mech.py")
        assert rules_of(findings) == ["LDP-R001"]

    RAW_WORDS = """
    import numpy as np

    def draw(rng, n):
        return rng.bit_generator.random_raw(n) >> 40
    """

    def test_raw_generator_words_flagged_in_library_code(self, tmp_path):
        findings, _ = lint_source(tmp_path, self.RAW_WORDS, name="repro/frequency_oracles/x.py")
        assert rules_of(findings) == ["LDP-R001"]
        assert "random_raw" in findings[0].message

    def test_raw_generator_words_flagged_even_in_exempt_dirs(self, tmp_path):
        for name in ("repro/experiments/gen.py", "repro/data/synth.py", "mod.py"):
            root = tmp_path / name.replace("/", "_")
            findings, _ = lint_source(root, self.RAW_WORDS, name=name)
            assert rules_of(findings) == ["LDP-R001"], name

    def test_raw_generator_words_allowed_in_the_audited_helper(self, tmp_path):
        findings, _ = lint_source(tmp_path, self.RAW_WORDS, name="repro/privacy/randomness.py")
        assert findings == []
        other = tmp_path / "other"
        findings, _ = lint_source(other, self.RAW_WORDS, name="repro/privacy/budget.py")
        assert rules_of(findings) == ["LDP-R001"]

    def test_other_generator_attributes_are_clean(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            def draw(rng, n):
                state = rng.bit_generator.state
                return rng.random(n), state["has_uint32"]
            """,
        )
        assert findings == []


class TestEpsilonFlowR002:
    def test_raw_exp_epsilon_flagged_outside_privacy(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            import math

            def variance(epsilon, n):
                e = math.exp(epsilon)
                return 4.0 * e / (n * (e - 1.0) ** 2)
            """,
        )
        assert rules_of(findings) == ["LDP-R002"]

    def test_exp_of_non_epsilon_is_clean(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            import math

            def gaussian(x, std):
                return math.exp(-0.5 * (x / std) ** 2)
            """,
        )
        assert findings == []

    def test_privacy_package_owns_exp_epsilon(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            import math

            def exp_epsilon(epsilon):
                return math.exp(epsilon)
            """,
            name="repro/privacy/budget.py",
        )
        assert findings == []

    def test_constructor_storing_raw_epsilon_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            class Mechanism:
                def __init__(self, epsilon, domain_size):
                    self._epsilon = float(epsilon)
                    self._domain_size = domain_size
            """,
        )
        assert rules_of(findings) == ["LDP-R002"]
        assert "validate_epsilon" in findings[0].message

    def test_constructor_validating_or_forwarding_is_clean(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            class Validating:
                def __init__(self, epsilon):
                    self._budget = PrivacyBudget(epsilon)

            class Forwarding:
                def __init__(self, epsilon, domain_size):
                    super().__init__(epsilon, domain_size)
                    self._tag = "forwarded"
            """,
        )
        assert findings == []


class TestWritePathPurityR003:
    def test_materialize_in_write_path_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            class Mechanism:
                def partial_fit(self, items):
                    self._collect(items)
                    self.materialize()
            """,
        )
        assert rules_of(findings) == ["LDP-R003"]
        assert "materialize" in findings[0].message

    @pytest.mark.parametrize("call", ["answer_box", "answer_boxes", "estimate_heatmap"])
    def test_box_read_surface_in_write_path_flagged(self, tmp_path, call):
        findings, _ = lint_source(
            tmp_path,
            f"""
            class Grid:
                def partial_fit_points(self, points):
                    self._collect(points)
                    return self.{call}(points)
            """,
        )
        assert rules_of(findings) == ["LDP-R003"]
        assert call in findings[0].message

    def test_estimate_attribute_read_in_write_path_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            class Mechanism:
                def state_dict(self):
                    return {}

                def load_state_dict(self, state):
                    total = self._frequencies.sum()
                    return total
            """,
        )
        assert rules_of(findings) == ["LDP-R003"]

    def test_estimate_attribute_reset_is_clean(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            class Mechanism:
                def state_dict(self):
                    return {"statistics": self._statistics}

                def load_state_dict(self, state):
                    self._statistics = state["statistics"]
                    self._frequencies = None
                    self._prefix = None
                    self._mark_dirty()
                    return self

                def merge_from(self, other):
                    self._statistics += other._statistics
                    return self
            """,
        )
        assert findings == []

    def test_read_surfaces_may_read_estimates(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            class Mechanism:
                def answer_range(self, start, end):
                    self._require_fitted()
                    return self._prefix[end + 1] - self._prefix[start]
            """,
        )
        assert findings == []

    PER_USER_ROUND_TRIP = """
    class Mechanism:
        def _accumulate_per_user(self, items, rng):
            oracle = self._oracles[1]
            self._accumulators[1].add(oracle.encode_batch(items, rng))
    """

    def test_encode_batch_in_core_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path, self.PER_USER_ROUND_TRIP, name="repro/core/mechanism.py"
        )
        assert rules_of(findings) == ["LDP-R003"]
        assert "encode_batch" in findings[0].message

    def test_accumulator_hook_in_core_is_clean(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            class Mechanism:
                def _accumulate_per_user(self, items, rng):
                    self._accumulators[1]._add_items(items, rng)
            """,
            name="repro/core/mechanism.py",
        )
        assert findings == []

    def test_encode_batch_outside_core_is_clean(self, tmp_path):
        for name in ("repro/frequency_oracles/base.py", "repro/service/client.py", "mod.py"):
            root = tmp_path / name.replace("/", "_")
            findings, _ = lint_source(root, self.PER_USER_ROUND_TRIP, name=name)
            assert findings == [], name


class TestAsyncioDisciplineR004:
    def test_blocking_sleep_and_result_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            import time

            async def worker(future):
                time.sleep(0.1)
                return future.result()
            """,
        )
        assert rules_of(findings) == ["LDP-R004"]
        assert len(findings) == 2

    def test_discarded_gather_with_return_exceptions_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            import asyncio

            async def stop(tasks):
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
            """,
        )
        assert rules_of(findings) == ["LDP-R004"]
        assert "return_exceptions" in findings[0].message

    def test_consumed_gather_is_clean(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            import asyncio

            async def stop(tasks):
                results = await asyncio.gather(*tasks, return_exceptions=True)
                return [r for r in results if isinstance(r, BaseException)]
            """,
        )
        assert findings == []

    def test_discarded_create_task_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            import asyncio

            async def kick(job):
                asyncio.create_task(job())
            """,
        )
        assert rules_of(findings) == ["LDP-R004"]
        assert "create_task" in findings[0].message

    def test_retained_task_and_async_sleep_clean(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            import asyncio

            async def run(jobs):
                tasks = [asyncio.create_task(job()) for job in jobs]
                handle = asyncio.create_task(jobs[0]())
                await asyncio.sleep(0.1)
                await asyncio.gather(*tasks)
                return await handle
            """,
        )
        assert findings == []

    def test_sync_helpers_shipped_to_executors_are_exempt(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            import asyncio

            async def aggregate(loop, pool, path):
                def blocking_read():
                    with open(path) as handle:
                        return handle.read()

                return await loop.run_in_executor(pool, blocking_read)
            """,
        )
        assert findings == []

    def test_sync_open_inside_async_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            async def snapshot(path):
                with open(path, "wb") as handle:
                    handle.write(b"state")
            """,
        )
        assert rules_of(findings) == ["LDP-R004"]


class TestPersistCoverageR005:
    def test_state_dict_without_load_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            class HalfSnapshot:
                def state_dict(self):
                    return {}
            """,
        )
        assert rules_of(findings) == ["LDP-R005"]
        assert "load_state_dict" in findings[0].message

    def test_load_without_state_dict_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            class OtherHalf:
                def load_state_dict(self, state):
                    return self
            """,
        )
        assert rules_of(findings) == ["LDP-R005"]

    def test_paired_hooks_clean(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            class FullSnapshot:
                def state_dict(self):
                    return {}

                def load_state_dict(self, state):
                    return self
            """,
        )
        assert findings == []

    def _write_tree(self, tmp_path, snapshots_source):
        mech = tmp_path / "repro" / "core" / "mech.py"
        mech.parent.mkdir(parents=True)
        mech.write_text(
            textwrap.dedent(
                """
                class ShinyMechanism(RangeQueryMechanism):
                    def state_dict(self):
                        return {}

                    def load_state_dict(self, state):
                        return self
                """
            ),
            encoding="utf-8",
        )
        snap = tmp_path / "repro" / "persist" / "snapshots.py"
        snap.parent.mkdir(parents=True)
        snap.write_text(textwrap.dedent(snapshots_source), encoding="utf-8")
        return lintmod.lint_paths([tmp_path])

    def test_unregistered_mechanism_flagged(self, tmp_path):
        findings, _ = self._write_tree(
            tmp_path,
            """
            def mechanism_config(mechanism):
                if isinstance(mechanism, SomeOtherMechanism):
                    return {"kind": "other"}
            """,
        )
        assert rules_of(findings) == ["LDP-R005"]
        assert "ShinyMechanism" in findings[0].message
        assert "config kind" in findings[0].message

    def test_registered_mechanism_clean(self, tmp_path):
        findings, _ = self._write_tree(
            tmp_path,
            """
            def mechanism_config(mechanism):
                if isinstance(mechanism, ShinyMechanism):
                    return {"kind": "shiny"}
            """,
        )
        assert findings == []

    def test_inherited_snapshot_hooks_need_registration(self, tmp_path):
        mech = tmp_path / "repro" / "core" / "mech.py"
        mech.parent.mkdir(parents=True)
        mech.write_text(
            textwrap.dedent(
                """
                import abc

                class TemplateMechanism(RangeQueryMechanism):
                    def state_dict(self):
                        return {}

                    def load_state_dict(self, state):
                        return self

                    @abc.abstractmethod
                    def _hook(self):
                        pass

                class RegisteredMechanism(TemplateMechanism):
                    def _hook(self):
                        pass

                class ForgottenMechanism(TemplateMechanism):
                    def _hook(self):
                        pass
                """
            ),
            encoding="utf-8",
        )
        snap = tmp_path / "repro" / "persist" / "snapshots.py"
        snap.parent.mkdir(parents=True)
        snap.write_text("REGISTRY = {RegisteredMechanism: 'registered'}\n", encoding="utf-8")
        findings, _ = lintmod.lint_paths([tmp_path])
        assert rules_of(findings) == ["LDP-R005"]
        assert "ForgottenMechanism" in findings[0].message

    def test_abstract_mechanisms_need_no_registration(self, tmp_path):
        mech = tmp_path / "repro" / "core" / "mech.py"
        mech.parent.mkdir(parents=True)
        mech.write_text(
            textwrap.dedent(
                """
                import abc

                class TemplateMechanism(RangeQueryMechanism, abc.ABC):
                    def state_dict(self):
                        return {}

                    def load_state_dict(self, state):
                        return self
                """
            ),
            encoding="utf-8",
        )
        snap = tmp_path / "repro" / "persist" / "snapshots.py"
        snap.parent.mkdir(parents=True)
        snap.write_text("REGISTRY = {}\n", encoding="utf-8")
        findings, _ = lintmod.lint_paths([tmp_path])
        assert findings == []


class TestExceptionDisciplineR006:
    def test_bare_stdlib_exceptions_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            def answer(start, end):
                if start > end:
                    raise ValueError("bad range")
                if end < 0:
                    raise RuntimeError("not fitted")
                raise Exception("boom")
            """,
        )
        assert rules_of(findings) == ["LDP-R006"]
        assert len(findings) == 3

    def test_repro_exception_types_clean(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            from repro.exceptions import InvalidQueryError, NotFittedError

            def answer(start, end):
                if start > end:
                    raise InvalidQueryError("bad range")
                if end < 0:
                    raise NotFittedError("not fitted")
                raise TypeError("programming error, allowed to propagate")
            """,
        )
        assert findings == []

    def test_reraise_is_clean(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            def forward(fn):
                try:
                    return fn()
                except KeyError:
                    raise
            """,
        )
        assert findings == []


class TestHttpTransportR008:
    def test_second_http_stacks_flagged(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            import http.client
            import urllib.request as fetch
            from http.client import HTTPConnection
            from http import client
            from urllib import parse, request
            """,
        )
        assert rules_of(findings) == ["LDP-R008"]
        assert [finding.line for finding in findings] == [2, 3, 4, 5, 6]
        assert "http.client" in findings[0].message
        assert "urllib.request" in findings[1].message

    def test_other_http_and_urllib_modules_are_clean(self, tmp_path):
        findings, _ = lint_source(
            tmp_path,
            """
            import http
            import urllib.parse
            from http import HTTPStatus
            from urllib.parse import quote
            from .http import client
            from repro.service.http import HttpServerThread
            """,
        )
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        findings, stats = lint_source(
            tmp_path,
            "import http.client  # repro: noqa[LDP-R008]\n",
        )
        assert findings == []
        assert stats["suppressed"] == 1


class TestSuppressionAndBaseline:
    BAD = """
    import numpy as np

    def sample():
        np.random.seed(0)
    """

    def test_targeted_noqa_suppresses(self, tmp_path):
        findings, stats = lint_source(
            tmp_path,
            """
            import numpy as np

            def sample():
                np.random.seed(0)  # repro: noqa[LDP-R001]
            """,
        )
        assert findings == []
        assert stats["suppressed"] == 1

    def test_blanket_noqa_suppresses(self, tmp_path):
        findings, stats = lint_source(
            tmp_path,
            """
            import numpy as np

            def sample():
                np.random.seed(0)  # repro: noqa
            """,
        )
        assert findings == []
        assert stats["suppressed"] == 1

    def test_mismatched_noqa_rule_does_not_suppress(self, tmp_path):
        findings, stats = lint_source(
            tmp_path,
            """
            import numpy as np

            def sample():
                np.random.seed(0)  # repro: noqa[LDP-R006]
            """,
        )
        assert rules_of(findings) == ["LDP-R001"]
        assert stats["suppressed"] == 0

    def test_baseline_forgives_exactly_once(self, tmp_path):
        findings, _ = lint_source(tmp_path, self.BAD)
        assert len(findings) == 1
        baseline = [findings[0].fingerprint]
        forgiven, stats = lintmod.lint_paths([tmp_path], baseline=baseline)
        assert forgiven == []
        assert stats["baselined"] == 1
        # The same fingerprint does not forgive a second occurrence.
        (tmp_path / "second.py").write_text(
            textwrap.dedent(self.BAD), encoding="utf-8"
        )
        remaining, stats = lintmod.lint_paths([tmp_path], baseline=baseline)
        assert len(remaining) == 1
        assert stats["baselined"] == 1

    def test_baseline_file_round_trip(self, tmp_path):
        source_dir = tmp_path / "code"
        findings, _ = lint_source(source_dir, self.BAD)
        baseline_path = tmp_path / "baseline.json"
        lintmod.write_baseline(baseline_path, findings)
        fingerprints = lintmod.load_baseline(baseline_path)
        assert fingerprints == [findings[0].fingerprint]
        clean, stats = lintmod.lint_paths([source_dir], baseline=fingerprints)
        assert clean == []
        assert stats["baselined"] == 1


class TestCli:
    def test_exit_codes_and_text_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nnp.random.seed(0)\n", encoding="utf-8")
        assert lintmod.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "LDP-R001" in out and "bad.py:2:" in out
        (tmp_path / "bad.py").write_text("X = 1\n", encoding="utf-8")
        assert lintmod.main([str(tmp_path)]) == 0

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nnp.random.seed(0)\n", encoding="utf-8")
        assert lintmod.main(["--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 1
        assert payload["files_checked"] == 1
        assert [f["rule"] for f in payload["findings"]] == ["LDP-R001"]

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert lintmod.main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("X = 1\n", encoding="utf-8")
        code = lintmod.main([str(tmp_path), "--baseline", str(tmp_path / "nope.json")])
        assert code == 2

    def test_write_baseline_then_lint_against_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nnp.random.seed(0)\n", encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert lintmod.main([str(bad), "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert lintmod.main([str(bad), "--baseline", str(baseline)]) == 0

    def test_list_rules_prints_all_six_families(self, capsys):
        assert lintmod.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("LDP-R001", "LDP-R002", "LDP-R003", "LDP-R004", "LDP-R005", "LDP-R006"):
            assert rule in out

    def test_unparseable_file_reported(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
        assert lintmod.main([str(tmp_path)]) == 1
        assert lintmod.PARSE_RULE in capsys.readouterr().out


def test_every_rule_has_a_description():
    assert set(lintmod.RULES) == {
        "LDP-R001",
        "LDP-R002",
        "LDP-R003",
        "LDP-R004",
        "LDP-R005",
        "LDP-R006",
        "LDP-R008",
    }
    assert all(lintmod.RULES.values())

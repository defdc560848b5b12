"""The repro.lint static analyzer: framework, rules, reporters, self-check.

Every rule gets three fixtures — a positive (the rule fires on its target
pattern), a negative (idiomatic code stays clean), and a suppressed
variant (``# repro: noqa(CODE)`` silences exactly that finding) — so the
self-check at the bottom ("``repro.lint src/`` is clean") stays meaningful:
a rule that detects nothing would fail its positive here first.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import Finding, LintResult, run_lint
from repro.lint.engine import PARSE_ERROR_CODE
from repro.lint.findings import SuppressionMap
from repro.lint.report import render_rules, render_text

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_sources(
    tmp_path: Path, files: dict[str, str], select: tuple[str, ...] | None = None
) -> LintResult:
    """Write fixture files under tmp_path and lint the whole tree."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint([tmp_path], select)


def codes(result: LintResult) -> list[str]:
    return [finding.code for finding in result.findings]


# -- RPR001: determinism hazards ---------------------------------------------


class TestDeterminismRule:
    def test_global_random_flagged(self, tmp_path):
        result = lint_sources(tmp_path, {
            "sim/bad.py": """\
                import random
                def jitter():
                    return random.random()
                """,
        }, select=("RPR001",))
        assert codes(result) == ["RPR001"]
        assert "process-global RNG" in result.findings[0].message

    def test_wall_clock_and_environ_flagged(self, tmp_path):
        result = lint_sources(tmp_path, {
            "dtm/bad.py": """\
                import os, time
                def snapshot():
                    return time.time(), os.environ["HOME"], os.getenv("X")
                """,
        }, select=("RPR001",))
        assert codes(result) == ["RPR001", "RPR001", "RPR001"]

    def test_set_iteration_flagged(self, tmp_path):
        result = lint_sources(tmp_path, {
            "core/bad.py": """\
                def drain(items):
                    for item in set(items):
                        yield item
                    return [x for x in {1, 2, 3}]
                """,
        }, select=("RPR001",))
        assert codes(result) == ["RPR001", "RPR001"]

    def test_seeded_instance_rng_is_clean(self, tmp_path):
        result = lint_sources(tmp_path, {
            "thermal/good.py": """\
                import random
                def noise(seed):
                    rng = random.Random(seed)
                    return rng.gauss(0.0, 1.0)
                def ordered(items):
                    for item in sorted(set(items)):
                        yield item
                """,
        }, select=("RPR001",))
        assert result.findings == []

    def test_unguarded_packages_are_exempt(self, tmp_path):
        result = lint_sources(tmp_path, {
            "analysis/free.py": "import os\nJOBS = os.environ.get('J')\n",
        }, select=("RPR001",))
        assert result.findings == []

    @pytest.mark.parametrize(
        "package", ["workloads", "memory", "power", "branch", "isa"]
    )
    def test_uop_generation_packages_are_guarded(self, tmp_path, package):
        # µop generation, the cache hierarchy, power accounting, the branch
        # predictor and the ISA executor all run inside every fingerprinted
        # run, so a global-RNG draw there is as fatal as one in sim/.
        result = lint_sources(tmp_path, {
            f"{package}/x.py": """\
                import random
                def next_uop():
                    return random.random()
                """,
        }, select=("RPR001",))
        assert codes(result) == ["RPR001"]

    def test_suppression_with_reason(self, tmp_path):
        result = lint_sources(tmp_path, {
            "sim/annotated.py": """\
                import time
                def stamp():
                    return time.perf_counter()  # repro: noqa(RPR001) diagnostics only
                """,
        }, select=("RPR001",))
        assert result.findings == [] and result.suppressed == 1

    def test_batch_engine_module_is_guarded(self, tmp_path):
        # The lock-step batch engine produces cache-keyed results, so a
        # determinism hazard in sim/batch.py must fire like any simulator
        # module — pin the module path inside the guarded set.
        result = lint_sources(tmp_path, {
            "sim/batch.py": """\
                import time
                def lane_order(lanes):
                    time.time()
                    return [lane for lane in set(lanes)]
                """,
        }, select=("RPR001",))
        assert codes(result) == ["RPR001", "RPR001"]

    def test_cohort_module_is_guarded(self, tmp_path):
        # The cohort engine decides split points and culprit order for
        # cache-keyed batch results; nondeterminism there silently skews
        # every lane of a group, so RPR001 must cover sim/cohort.py.
        result = lint_sources(tmp_path, {
            "sim/cohort.py": """\
                import random
                def pick_keeper(partitions):
                    for lanes in {tuple(p) for p in partitions}:
                        pass
                    return random.choice(partitions)
                """,
        }, select=("RPR001",))
        assert codes(result) == ["RPR001", "RPR001"]


# -- RPR002: fingerprint completeness ----------------------------------------


SPEC_MODULE = """\
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class RunSpec:
        workloads: tuple
        config: object
        trace: bool = False
    {extra_field}
    def spec_fingerprint(spec):
        return {{
            "workloads": list(spec.workloads),
            "config": repr(spec.config),
            "trace": spec.trace,
        }}
    """


class TestFingerprintRule:
    def test_unkeyed_field_flagged(self, tmp_path):
        result = lint_sources(tmp_path, {
            "parallel.py": SPEC_MODULE.format(extra_field="    telemetry: bool = False\n"),
        }, select=("RPR002",))
        assert codes(result) == ["RPR002"]
        finding = result.findings[0]
        assert "RunSpec.telemetry" in finding.message
        assert "CACHE_SCHEMA" in finding.message
        # Anchored at the field definition so the fix is one click away.
        assert finding.line == 8

    def test_fully_keyed_spec_is_clean(self, tmp_path):
        result = lint_sources(tmp_path, {
            "parallel.py": SPEC_MODULE.format(extra_field=""),
        }, select=("RPR002",))
        assert result.findings == []

    def test_spec_without_fingerprint_flagged(self, tmp_path):
        result = lint_sources(tmp_path, {
            "parallel.py": """\
                from dataclasses import dataclass
                @dataclass(frozen=True)
                class RunSpec:
                    workloads: tuple
                """,
        }, select=("RPR002",))
        assert codes(result) == ["RPR002"]
        assert "no spec_fingerprint" in result.findings[0].message

    def test_suppressed_field(self, tmp_path):
        source = SPEC_MODULE.format(
            extra_field="    scratch: int = 0  # repro: noqa(RPR002) display-only\n"
        )
        result = lint_sources(tmp_path, {"parallel.py": source}, select=("RPR002",))
        assert result.findings == [] and result.suppressed == 1


# -- RPR003: paper-constant hygiene ------------------------------------------


class TestPaperConstantRule:
    def test_kelvin_literal_flagged(self, tmp_path):
        result = lint_sources(tmp_path, {
            "dtm/policy.py": "EMERGENCY = 358.0\n",
        }, select=("RPR003",))
        assert codes(result) == ["RPR003"]
        assert "358.0" in result.findings[0].message

    def test_ewma_factor_flagged_in_both_spellings(self, tmp_path):
        result = lint_sources(tmp_path, {
            "core/ewma_copy.py": "X = 1 / 128\nY = 0.0078125\n",
        }, select=("RPR003",))
        assert codes(result) == ["RPR003", "RPR003"]

    def test_sample_interval_context_flagged(self, tmp_path):
        result = lint_sources(tmp_path, {
            "sim/runner.py": """\
                def make(cfg):
                    return cfg.replace(sample_interval=1000)
                """,
        }, select=("RPR003",))
        assert codes(result) == ["RPR003"]

    def test_canonical_site_and_unrelated_numbers_clean(self, tmp_path):
        result = lint_sources(tmp_path, {
            "config.py": "EMERGENCY_TEMPERATURE_K = 358.0\n",
            "sim/span.py": "CHUNK = 1000  # a span, not a sample interval\n",
            "thermal/model.py": "AMBIENT_K = 318.0\n",
        }, select=("RPR003",))
        assert result.findings == []

    def test_suppressed_literal(self, tmp_path):
        result = lint_sources(tmp_path, {
            "analysis/chart.py": (
                "LADDER = [354.0, 358.0]"
                "  # repro: noqa(RPR003) axis labels for the strip chart\n"
            ),
        }, select=("RPR003",))
        assert result.findings == [] and result.suppressed == 2


# -- RPR004: telemetry coverage ----------------------------------------------


EVENTS_MODULE = """\
    import enum

    class EventType(str, enum.Enum):
        SEDATE = "sedate"
        RELEASE = "release"
    """


class TestTelemetryCoverageRule:
    def test_dead_and_undefined_event_types_flagged(self, tmp_path):
        result = lint_sources(tmp_path, {
            "telemetry/events.py": EVENTS_MODULE,
            "core/emitter.py": """\
                from .events import EventType
                def fire(session, cycle):
                    session.emit(EventType.SEDATE, cycle)
                    session.emit(EventType.SEDATED, cycle)  # typo
                """,
        }, select=("RPR004",))
        found = {(f.code, f.message.split(" ")[0].split(".")[1]) for f in result.findings}
        assert ("RPR004", "SEDATED") in found  # undefined member
        assert ("RPR004", "RELEASE") in found  # defined but never emitted

    def test_full_coverage_is_clean(self, tmp_path):
        result = lint_sources(tmp_path, {
            "telemetry/events.py": EVENTS_MODULE,
            "core/emitter.py": """\
                from .events import EventType
                def fire(session, cycle, releasing):
                    kind = EventType.RELEASE if releasing else EventType.SEDATE
                    session.emit(EventType.SEDATE, cycle)
                    session.emit(EventType.RELEASE, cycle)
                """,
        }, select=("RPR004",))
        assert result.findings == []

    def test_single_module_lint_has_no_phantom_findings(self, tmp_path):
        # Without any emit site in scope, the missing-emit half stays quiet.
        result = lint_sources(tmp_path, {
            "telemetry/events.py": EVENTS_MODULE,
        }, select=("RPR004",))
        assert result.findings == []

    def test_campaign_event_types_need_emit_sites(self, tmp_path):
        # The lane/campaign members added for run_many rollups are ordinary
        # enum members to the rule: defining them without an emit site is a
        # finding, and a runner module that emits both is clean.
        events = EVENTS_MODULE + (
            '    LANE_COMPLETE = "lane_complete"\n'
            '        CAMPAIGN_ROLLUP = "campaign_rollup"\n'
        )
        runner = """\
            from .events import EventType
            def fire(session, cycle):
                session.emit(EventType.SEDATE, cycle)
                session.emit(EventType.RELEASE, cycle)
            """
        result = lint_sources(tmp_path, {
            "telemetry/events.py": events,
            "core/emitter.py": runner,
        }, select=("RPR004",))
        dead = {f.message.split(" ")[0].split(".")[1] for f in result.findings}
        assert {"LANE_COMPLETE", "CAMPAIGN_ROLLUP"} <= dead

        covered = lint_sources(tmp_path, {
            "telemetry/events.py": events,
            "core/emitter.py": runner + (
                "\n"
                "            def campaign(session, lanes, key):\n"
                "                for index in range(lanes):\n"
                "                    session.emit(EventType.LANE_COMPLETE,\n"
                "                                 index)\n"
                "                session.emit(EventType.CAMPAIGN_ROLLUP,\n"
                "                             lanes, data={'key': key})\n"
            ),
        }, select=("RPR004",))
        assert covered.findings == []

    def test_suppressed_dead_member(self, tmp_path):
        events = EVENTS_MODULE + (
            "    FUTURE = 'future'"
            "  # repro: noqa(RPR004) reserved for the next schema\n"
        )
        result = lint_sources(tmp_path, {
            "telemetry/events.py": events,
            "core/emitter.py": """\
                from .events import EventType
                def fire(session, cycle):
                    session.emit(EventType.SEDATE, cycle)
                    session.emit(EventType.RELEASE, cycle)
                """,
        }, select=("RPR004",))
        assert result.findings == [] and result.suppressed == 1


# -- framework: suppression parsing, parse errors, selection ------------------


class TestFramework:
    def test_blanket_noqa_suppresses_everything(self):
        source = "x = 1  # repro: noqa\ny = 2  # repro: noqa(RPR001, RPR003)\n"
        noqa = SuppressionMap.from_source(source)
        assert noqa.suppresses(1, "RPR001") and noqa.suppresses(1, "RPR999")
        assert noqa.suppresses(2, "RPR003") and not noqa.suppresses(2, "RPR002")
        assert not noqa.suppresses(3, "RPR001")

    def test_noqa_inside_string_is_not_a_suppression(self):
        noqa = SuppressionMap.from_source('x = "# repro: noqa"\n')
        assert not noqa.suppresses(1, "RPR001")

    def test_syntax_error_is_a_finding(self, tmp_path):
        result = lint_sources(tmp_path, {"sim/broken.py": "def f(:\n"})
        assert codes(result) == [PARSE_ERROR_CODE]
        assert result.exit_code == 1

    def test_unknown_rule_code_rejected(self, tmp_path):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="unknown rule"):
            run_lint([tmp_path], ("RPR999",))

    def test_pycache_is_skipped(self, tmp_path):
        result = lint_sources(tmp_path, {
            "__pycache__/junk.py": "x = 358.0\n",
            "dtm/ok.py": "x = 1\n",
        })
        assert result.files_checked == 1 and result.findings == []


# -- reporters ----------------------------------------------------------------


class TestReporters:
    @pytest.fixture()
    def result(self):
        return LintResult(
            findings=[
                Finding("src/a.py", 3, 5, "RPR001", "wall clock read"),
                Finding("src/b.py", 10, 1, "RPR003", "magic constant"),
            ],
            suppressed=2,
            files_checked=4,
        )

    def test_text_golden(self, result):
        assert render_text(result) == (
            "src/a.py:3:5: RPR001 wall clock read\n"
            "src/b.py:10:1: RPR003 magic constant\n"
            "checked 4 file(s): 2 findings (2 suppressed)"
        )

    def test_text_singular_and_clean(self):
        clean = LintResult(files_checked=2)
        assert render_text(clean) == "checked 2 file(s): 0 findings"

    def test_rule_catalog_lists_all_six(self):
        catalog = render_rules()
        for code in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR007",
                     "RPR008"):
            assert code in catalog
        assert "RPR005" not in catalog  # retired: tests/test_config.py checks the ladder
        assert "RPR006" not in catalog  # retired with the twin anchors
        assert "RPR009" not in catalog  # retired with the usage-monitor bank


# -- the self-check: this repository must pass its own linter -----------------


class TestSelfCheck:
    def test_src_tree_is_clean(self):
        result = run_lint([REPO_ROOT / "src"])
        assert result.findings == [], "\n".join(
            finding.render() for finding in result.findings
        )
        assert result.files_checked > 50  # the whole package was scanned

    @staticmethod
    def _lint_cli(*args: str, cwd: Path = REPO_ROOT):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *args],
            capture_output=True, text=True, cwd=cwd, env=env,
        )

    def test_cli_module_entry_is_clean(self):
        proc = self._lint_cli("src/")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert ": 0 findings" in proc.stdout.splitlines()[-1]

    def test_module_entry_point_flags_a_bad_file(self, tmp_path):
        bad = tmp_path / "sim" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import time\nT = time.time()\n")
        proc = self._lint_cli(str(tmp_path), cwd=tmp_path)
        assert proc.returncode == 1
        assert "RPR001" in proc.stdout

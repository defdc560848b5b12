"""repro.lint v2: project context, cross-module rules, baseline, CLI.

The v1 rules keep their fixtures in ``test_lint.py``; this file covers the
project-wide analysis context (symbol table, import/call graph, dict
shapes) and everything built on it: RPR007 transitive determinism taint,
RPR008 payload schemas, the SARIF reporter, multi-line suppression, and the
``--rule``/``--output`` CLI flags.
"""

from __future__ import annotations

import ast
import json
import textwrap
import time
from pathlib import Path

from repro.lint import Finding, LintResult, run_lint
from repro.lint.cli import main as lint_main
from repro.lint.engine import _load_module, iter_python_files
from repro.lint.findings import SuppressionMap
from repro.lint.project import (
    ProjectContext,
    dict_shape_at,
    module_dotted_name,
)
from repro.lint.report import render_sarif

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_tree(tmp_path: Path, files: dict[str, str]) -> None:
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


def lint_tree(
    tmp_path: Path,
    files: dict[str, str],
    select: tuple[str, ...] | None = None,
) -> LintResult:
    write_tree(tmp_path, files)
    return run_lint([tmp_path], select)


def build_context(tmp_path: Path, files: dict[str, str]) -> ProjectContext:
    write_tree(tmp_path, files)
    modules = []
    for path in iter_python_files([tmp_path]):
        module, error = _load_module(path)
        assert error is None, error
        modules.append(module)
    return ProjectContext(modules)


def codes(result: LintResult) -> list[str]:
    return [finding.code for finding in result.findings]


# -- the project context ------------------------------------------------------


class TestProjectContext:
    def test_symbol_table_and_dotted_names(self, tmp_path):
        ctx = build_context(tmp_path, {
            "dtm/policy.py": """\
                def helper():
                    pass

                class Policy:
                    def on_sensor(self, reading):
                        pass
                """,
        })
        info = ctx.modules[0]
        assert info.dotted.endswith("dtm.policy")
        assert set(info.functions) == {"helper", "Policy.on_sensor"}
        fi = info.functions["Policy.on_sensor"]
        assert fi.qualname == f"{info.dotted}::Policy.on_sensor"
        assert fi.class_name == "Policy" and fi.short == "Policy.on_sensor"

    def test_repro_rooted_dotted_name(self):
        module, _ = _load_module(REPO_ROOT / "src" / "repro" / "dtm" / "dvfs.py")
        assert module_dotted_name(module) == "repro.dtm.dvfs"

    def test_imported_symbol_call_edge(self, tmp_path):
        ctx = build_context(tmp_path, {
            "analysis/util.py": """\
                def stamp():
                    return 0
                """,
            "sim/run.py": """\
                from analysis.util import stamp

                def simulate():
                    return stamp()
                """,
        })
        caller = next(q for q in ctx.call_graph if q.endswith("::simulate"))
        callees = [callee for callee, _call in ctx.call_graph[caller]]
        assert len(callees) == 1 and callees[0].endswith("util::stamp")

    def test_self_method_call_edge(self, tmp_path):
        ctx = build_context(tmp_path, {
            "sim/core.py": """\
                class Core:
                    def step(self):
                        self.tick()

                    def tick(self):
                        pass
                """,
        })
        caller = next(q for q in ctx.call_graph if q.endswith("::Core.step"))
        callees = [callee for callee, _call in ctx.call_graph[caller]]
        assert callees == [caller.replace("Core.step", "Core.tick")]

    def test_find_module_suffix_and_ambiguity(self, tmp_path):
        ctx = build_context(tmp_path, {
            "analysis/util.py": "A = 1\n",
            "plots/util.py": "B = 2\n",
            "analysis/io.py": "C = 3\n",
        })
        assert ctx.find_module("analysis.util") is not None
        assert ctx.find_module("analysis.io") is not None
        # Two modules end in ".util": a bare suffix must not guess.
        assert ctx.find_module("util") is None

    def test_dict_shape_tracks_branch_keys(self, tmp_path):
        source = textwrap.dedent("""\
            def fire(session, ok):
                data = {"a": 1}
                data["b"] = "x"
                if ok:
                    data["c"] = 2
                session.emit(data)
            """)
        tree = ast.parse(source)
        func = tree.body[0]
        call = next(
            node for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
        )
        shape = dict_shape_at(func, "data", call)
        assert shape.required == {"a", "b"} and shape.optional == {"c"}
        assert shape.kinds["a"] == {"num"} and shape.kinds["b"] == {"str"}
        assert not shape.dynamic

    def test_dict_shape_unpack_is_dynamic(self):
        source = "def fire(session, extra):\n    data = {**extra}\n    session.emit(data)\n"
        func = ast.parse(source).body[0]
        call = next(
            node for node in ast.walk(func) if isinstance(node, ast.Call)
        )
        shape = dict_shape_at(func, "data", call)
        assert shape.dynamic


# -- RPR007: transitive determinism taint -------------------------------------


class TestTransitiveTaintRule:
    def test_helper_routed_wall_clock_fires(self, tmp_path):
        result = lint_tree(tmp_path, {
            "analysis/util.py": """\
                import time

                def stamp():
                    return time.time()
                """,
            "sim/run.py": """\
                from analysis.util import stamp

                def simulate():
                    return stamp()
                """,
        }, select=("RPR007",))
        assert codes(result) == ["RPR007"]
        finding = result.findings[0]
        assert finding.path.endswith("sim/run.py")
        assert "simulate() reaches time.time() through stamp" in finding.message

    def test_two_hop_chain_is_spelled_out(self, tmp_path):
        result = lint_tree(tmp_path, {
            "analysis/inner.py": """\
                import time

                def now():
                    return time.time()
                """,
            "analysis/outer.py": """\
                from analysis.inner import now

                def wrap():
                    return now()
                """,
            "sim/run.py": """\
                from analysis.outer import wrap

                def simulate():
                    return wrap()
                """,
        }, select=("RPR007",))
        assert codes(result) == ["RPR007"]
        assert "wrap -> now" in result.findings[0].message

    def test_sanctioned_helper_does_not_taint(self, tmp_path):
        result = lint_tree(tmp_path, {
            "analysis/util.py": """\
                import time

                def stamp():
                    return time.time()  # repro: noqa(RPR007) wall time is display-only here
                """,
            "sim/run.py": """\
                from analysis.util import stamp

                def simulate():
                    return stamp()
                """,
        }, select=("RPR007",))
        assert result.findings == []

    def test_direct_hazard_in_guarded_code_is_rpr001_business(self, tmp_path):
        files = {
            "sim/run.py": """\
                import time

                def simulate():
                    return time.time()
                """,
        }
        taint_only = lint_tree(tmp_path, files, select=("RPR007",))
        assert taint_only.findings == []
        both = run_lint([tmp_path], ("RPR001", "RPR007"))
        assert codes(both) == ["RPR001"]

    def test_guarded_helper_is_a_taint_barrier(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sim/helper.py": """\
                import time

                def now():
                    return time.time()
                """,
            "sim/run.py": """\
                from sim.helper import now

                def simulate():
                    return now()
                """,
        }, select=("RPR007",))
        assert result.findings == []


# -- RPR008: payload schema consistency ---------------------------------------


class TestPayloadSchemaRule:
    def test_key_set_drift_fires_on_the_outlier(self, tmp_path):
        result = lint_tree(tmp_path, {
            "telemetry/a.py": """\
                def fire(session, cycle):
                    session.emit(EventType.STEP, cycle, data={"slowdown": 2})
                """,
            "telemetry/b.py": """\
                def fire(session, cycle):
                    session.emit(
                        EventType.STEP, cycle,
                        data={"slowdown": 3, "mechanism": "dvfs"},
                    )
                """,
        }, select=("RPR008",))
        assert codes(result) == ["RPR008"]
        finding = result.findings[0]
        assert finding.path.endswith("telemetry/b.py")
        assert "differ from {slowdown}" in finding.message

    def test_value_kind_drift_fires(self, tmp_path):
        result = lint_tree(tmp_path, {
            "telemetry/a.py": """\
                def fire(session, cycle):
                    session.emit(EventType.STEP, cycle, data={"slowdown": 2})
                """,
            "telemetry/b.py": """\
                def fire(session, cycle):
                    session.emit(EventType.STEP, cycle, data={"slowdown": "slow"})
                """,
        }, select=("RPR008",))
        assert codes(result) == ["RPR008"]
        assert "mixes value kinds" in result.findings[0].message

    def test_conditional_key_fires(self, tmp_path):
        result = lint_tree(tmp_path, {
            "telemetry/a.py": """\
                def fire(session, cycle, failed):
                    data = {"slowdown": 2}
                    if failed:
                        data["error"] = "boom"
                    session.emit(EventType.STEP, cycle, data=data)
                """,
        }, select=("RPR008",))
        assert codes(result) == ["RPR008"]
        assert "conditional keys {error}" in result.findings[0].message

    def test_dynamic_payload_fires(self, tmp_path):
        result = lint_tree(tmp_path, {
            "telemetry/a.py": """\
                def fire(session, cycle, extra):
                    session.emit(EventType.STEP, cycle, data={**extra})
                """,
        }, select=("RPR008",))
        assert codes(result) == ["RPR008"]
        assert "not statically analyzable" in result.findings[0].message

    def test_consistent_sites_are_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "telemetry/a.py": """\
                def fire(session, cycle):
                    session.emit(EventType.STEP, cycle, data={"slowdown": 2})
                """,
            "telemetry/b.py": """\
                def fire(session, cycle):
                    session.emit(EventType.STEP, cycle, data={"slowdown": 4})
                """,
            "telemetry/c.py": """\
                def fire(session, cycle):
                    session.emit(EventType.OTHER, cycle)
                """,
        }, select=("RPR008",))
        assert result.findings == []

    def test_suppressed_variant_site(self, tmp_path):
        result = lint_tree(tmp_path, {
            "telemetry/a.py": """\
                def fire(session, cycle):
                    session.emit(EventType.STEP, cycle, data={"slowdown": 2})
                def fire_more(session, cycle):
                    session.emit(EventType.STEP, cycle, data={"slowdown": 3})
                """,
            "telemetry/b.py": """\
                def fire(session, cycle):
                    session.emit(  # repro: noqa(RPR008) deliberate variant
                        EventType.STEP, cycle,
                        data={"slowdown": 3, "mechanism": "dvfs"},
                    )
                """,
        }, select=("RPR008",))
        assert result.findings == [] and result.suppressed == 1


# -- multi-line suppression (regression) --------------------------------------


class TestMultiLineSuppression:
    def test_noqa_inside_wrapped_statement_covers_its_span(self):
        source = (
            "value = compute(\n"
            "    358.0,\n"
            "    # repro: noqa(RPR003) wrapped-call fixture\n"
            ")\n"
        )
        noqa = SuppressionMap.from_source(source)
        for line in (1, 2, 3, 4):
            assert noqa.suppresses(line, "RPR003"), line
        assert not noqa.suppresses(1, "RPR001")

    def test_standalone_comment_only_covers_its_own_line(self):
        source = "# repro: noqa(RPR003) not attached\nvalue = 358.0\n"
        noqa = SuppressionMap.from_source(source)
        assert noqa.suppresses(1, "RPR003")
        assert not noqa.suppresses(2, "RPR003")

    def test_wrapped_hazard_call_is_suppressed_end_to_end(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sim/clock.py": """\
                import time

                def now():
                    return time.time(
                        # repro: noqa(RPR001) diagnostics only
                    )
                """,
        }, select=("RPR001",))
        assert result.findings == [] and result.suppressed == 1


# -- SARIF reporter -----------------------------------------------------------


class TestSarifReporter:
    def test_structure_and_rule_index(self):
        result = LintResult(
            findings=[Finding("src/a.py", 3, 5, "RPR008", "drifted")],
            files_checked=1,
        )
        payload = json.loads(render_sarif(result))
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.lint"
        ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert ids == sorted(ids) and len(ids) == 6
        entry = run["results"][0]
        assert entry["ruleId"] == "RPR008"
        assert ids[entry["ruleIndex"]] == "RPR008"
        location = entry["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/a.py"
        assert location["region"] == {"startLine": 3, "startColumn": 5}

    def test_clean_run_has_no_results(self):
        payload = json.loads(render_sarif(LintResult(files_checked=2)))
        assert payload["runs"][0]["results"] == []


# -- CLI: --rule and --output -----------------------------------------------


class TestCLIFlags:
    def test_rule_flag_narrows_selection(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "dtm/policy.py": "EMERGENCY = 358.0\n",
            "sim/clock.py": "import time\nT = time.time()\n",
        })
        status = lint_main([str(tmp_path), "--rule", "RPR003"])
        out = capsys.readouterr().out
        assert status == 1
        assert "RPR003" in out and "RPR001" not in out

    def test_rule_flag_is_repeatable(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "dtm/policy.py": "EMERGENCY = 358.0\n",
            "sim/clock.py": "import time\nT = time.time()\n",
        })
        status = lint_main(
            [str(tmp_path), "--rule", "RPR003", "--rule", "RPR001"]
        )
        out = capsys.readouterr().out
        assert status == 1
        assert "RPR003" in out and "RPR001" in out

    def test_output_writes_report_and_prints_summary(self, tmp_path, capsys):
        write_tree(tmp_path, {"dtm/policy.py": "EMERGENCY = 358.0\n"})
        target = tmp_path / "lint.sarif"
        status = lint_main([
            str(tmp_path / "dtm"), "--rule", "RPR003",
            "--format", "sarif", "--output", str(target),
        ])
        out = capsys.readouterr().out
        assert status == 1
        payload = json.loads(target.read_text())
        assert payload["runs"][0]["results"][0]["ruleId"] == "RPR003"
        assert "1 finding" in out  # the one-line text pulse


# -- performance budget -------------------------------------------------------


class TestRuntimeBudget:
    def test_full_tree_under_ten_seconds(self):
        start = time.monotonic()
        result = run_lint([REPO_ROOT / "src"])
        elapsed = time.monotonic() - start
        assert result.files_checked > 50
        assert elapsed < 10.0, f"lint took {elapsed:.1f}s"


# -- the durable-campaign module under the determinism guard ------------------


class TestDurableModuleGuard:
    """sim/durable.py sits inside RPR001's guarded ``sim`` package.

    Its only wall-clock reads are the lease heartbeats, each carrying a
    reasoned suppression; stripping a suppression must re-fire RPR001, so
    the sanction stays a conscious, reviewed decision.
    """

    DURABLE = REPO_ROOT / "src" / "repro" / "sim" / "durable.py"

    def test_real_module_is_clean_with_sanctioned_heartbeats(self):
        result = run_lint([self.DURABLE])
        assert result.findings == []
        assert result.suppressed >= 2  # the two heartbeat wall reads

    def test_heartbeat_suppressions_carry_their_reasoning(self):
        noqa_lines = [
            line for line in self.DURABLE.read_text().splitlines()
            if "repro: noqa(RPR001)" in line
        ]
        assert len(noqa_lines) == 2
        assert all("never feeds a fingerprint" in line
                   for line in noqa_lines)

    def test_stripping_a_heartbeat_sanction_refires_rpr001(self, tmp_path):
        source = self.DURABLE.read_text()
        stripped = "\n".join(
            line.split("  # repro: noqa(RPR001)")[0]
            for line in source.splitlines()
        ) + "\n"
        assert "noqa(RPR001)" not in stripped
        target = tmp_path / "sim" / "durable.py"
        target.parent.mkdir(parents=True)
        target.write_text(stripped)
        result = run_lint([tmp_path], ("RPR001",))
        assert codes(result).count("RPR001") == 2

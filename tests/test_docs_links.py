"""Documentation link integrity, enforced by tier-1.

Runs ``tools/check_links.py`` over the repo's markdown so a dead internal
link — a renamed file, a reworded heading, a line anchor left behind by a
refactor — fails tests, not just the CI docs job.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_links():
    spec = importlib.util.spec_from_file_location(
        "check_links", REPO_ROOT / "tools" / "check_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRepoDocs:
    def test_default_set_has_no_dead_links(self, check_links, capsys):
        assert check_links.main([]) == 0, capsys.readouterr().err

    def test_default_set_files_exist(self, check_links):
        for name in check_links.DEFAULT_FILES:
            assert (REPO_ROOT / name).exists(), name


class TestChecker:
    """The checker itself must catch what it claims to catch."""

    def test_missing_target(self, check_links, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("[gone](nowhere.md)\n")
        errors = check_links.check_file(doc)
        assert len(errors) == 1 and "missing target" in errors[0]

    def test_bad_heading_anchor(self, check_links, tmp_path):
        (tmp_path / "other.md").write_text("# Real Heading\n")
        doc = tmp_path / "doc.md"
        doc.write_text("[ok](other.md#real-heading) [bad](other.md#nope)\n")
        errors = check_links.check_file(doc)
        assert len(errors) == 1 and "no heading anchor" in errors[0]

    def test_line_anchor_past_eof(self, check_links, tmp_path):
        (tmp_path / "code.py").write_text("x = 1\ny = 2\n")
        doc = tmp_path / "doc.md"
        doc.write_text("[ok](code.py#L2) [bad](code.py#L3)\n")
        errors = check_links.check_file(doc)
        assert len(errors) == 1 and "points past end" in errors[0]

    def test_named_line_anchor_must_land_on_the_name(self, check_links, tmp_path):
        (tmp_path / "code.py").write_text(
            "class Spec:\n    def key(self):\n        pass\n\ndef fingerprint(spec):\n"
        )
        doc = tmp_path / "doc.md"
        doc.write_text(
            "[`fingerprint()`](code.py#L5) [`Spec.key`](code.py#L2)"
            " [`Spec`](code.py#L1-L3) [prose](code.py#L4)\n"
            "[`fingerprint`](code.py#L2)\n"  # drifted inside the file
        )
        errors = check_links.check_file(doc)
        assert len(errors) == 1
        assert "doc.md:2:" in errors[0] and "does not land on 'fingerprint'" in errors[0]

    def test_external_and_fenced_links_ignored(self, check_links, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "[web](https://example.com/x)\n"
            "```\n[not a link](missing.md)\n```\n"
            "`[also not](missing.md)`\n"
        )
        assert check_links.check_file(doc) == []

    def test_duplicate_headings_get_suffixes(self, check_links):
        slugs = check_links.github_slugs("# Same\n# Same\n")
        assert slugs == {"same", "same-1"}

    def test_cli_entry(self, check_links, tmp_path, capsys):
        doc = tmp_path / "doc.md"
        doc.write_text("[bad](missing.md)\n")
        assert check_links.main([str(doc)]) == 1
        assert "missing target" in capsys.readouterr().err

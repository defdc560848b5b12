#!/usr/bin/env python3
"""Internal-link checker for the repo's markdown.

Validates every inline markdown link (``[text](target)``) whose target is
*internal* — a relative path, optionally with a ``#fragment``:

* the target file (or directory) must exist, resolved relative to the
  markdown file containing the link;
* a ``#heading-anchor`` into a markdown file must match a heading in that
  file, using GitHub's slug rules (lowercased, punctuation stripped, spaces
  to hyphens, ``-N`` suffixes for duplicates);
* a ``#L<n>`` line anchor into a source file must not point past the end
  of the file, and when the link text is a code span naming an identifier
  (`` `name` ``, `` `name()` ``, `` `Cls.meth` ``) the anchored line must
  contain the identifier's last dotted part, so an anchor that drifts
  inside the file fails too.

External links (``http(s)://``, ``mailto:``) are deliberately ignored —
CI must not depend on the network.  Exit status is the number of dead
links (0 = clean), so it slots straight into a CI step:

    python tools/check_links.py            # default file set
    python tools/check_links.py docs/*.md  # explicit files
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Checked when no files are given on the command line.
DEFAULT_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/architecture.md",
    "docs/cli.md",
    "docs/paper_map.md",
    "docs/linting.md",
    "docs/robustness.md",
    "docs/performance.md",
    "docs/telemetry.md",
)

# Inline links; [text](target "title") and [text](target).  Images share
# the syntax (leading !) and are validated the same way.
_LINK = re.compile(r"\[([^\]]*)\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_CODE_SPAN = re.compile(r"`[^`]*`")
# Link text that names an identifier: `name`, `name()`, `Cls.meth`.
_NAMED = re.compile(r"^`((?:[A-Za-z_]\w*\.)*([A-Za-z_]\w*))(?:\(\))?`$")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$")
_LINE_ANCHOR = re.compile(r"^L(\d+)(?:-L?\d+)?$")
_EXTERNAL = ("http://", "https://", "mailto:")


def github_slugs(markdown: str) -> set[str]:
    """The set of heading anchors GitHub would generate for a document."""
    slugs: set[str] = set()
    counts: dict[str, int] = {}
    in_fence = False
    for line in markdown.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING.match(line)
        if not match:
            continue
        text = match.group(1).strip()
        # Strip inline code/link markup before slugging.
        text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
        text = text.replace("`", "")
        slug = re.sub(r"[^\w\- ]", "", text.lower()).replace(" ", "-")
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        slugs.add(slug if seen == 0 else f"{slug}-{seen}")
    return slugs


def iter_links(markdown: str):
    """Yield (lineno, text, target) for every inline link, skipping code
    fences and links inside inline code spans."""
    in_fence = False
    for lineno, line in enumerate(markdown.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        # A link that starts inside a code span (`[x](y)`) is not a link.
        spans = [m.span() for m in _CODE_SPAN.finditer(line)]
        for match in _LINK.finditer(line):
            if not any(a <= match.start() < b for a, b in spans):
                yield lineno, match.group(1), match.group(2)


def check_file(path: Path) -> list[str]:
    """Return one error string per dead link in one markdown file."""
    errors: list[str] = []
    try:
        markdown = path.read_text()
    except OSError as error:
        return [f"{path}: unreadable ({error})"]
    for lineno, text, target in iter_links(markdown):
        if target.startswith(_EXTERNAL):
            continue
        try:
            shown = path.relative_to(REPO_ROOT)
        except ValueError:
            shown = path
        where = f"{shown}:{lineno}"
        raw_path, _, fragment = target.partition("#")
        if raw_path:
            dest = (path.parent / raw_path).resolve()
        else:
            dest = path.resolve()  # '#anchor' — same document
        if not dest.exists():
            errors.append(f"{where}: missing target {target!r}")
            continue
        if not fragment:
            continue
        line_anchor = _LINE_ANCHOR.match(fragment)
        if line_anchor:
            wanted = int(line_anchor.group(1))
            if dest.is_dir():
                errors.append(f"{where}: line anchor into directory {target!r}")
                continue
            lines = dest.read_text().splitlines()
            named = _NAMED.match(text)
            if wanted > len(lines):
                errors.append(
                    f"{where}: {target!r} points past end of file "
                    f"({wanted} > {len(lines)} lines)"
                )
            elif named and not re.search(
                rf"\b{named.group(2)}\b", lines[wanted - 1]
            ):
                errors.append(
                    f"{where}: {target!r} does not land on "
                    f"{named.group(2)!r} (line {wanted} reads "
                    f"{lines[wanted - 1].strip()!r})"
                )
        elif dest.suffix == ".md":
            if fragment.lower() not in github_slugs(dest.read_text()):
                errors.append(f"{where}: no heading anchor {target!r}")
        # Fragments into non-markdown files that are not line anchors are
        # viewer-specific; leave them alone.
    return errors


def main(argv: list[str]) -> int:
    if argv:
        files = [Path(arg).resolve() for arg in argv]
    else:
        files = [REPO_ROOT / name for name in DEFAULT_FILES]
    errors: list[str] = []
    checked = 0
    for path in files:
        if not path.exists():
            errors.append(f"{path}: file not found")
            continue
        checked += 1
        errors.extend(check_file(path))
    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked {checked} file(s): {len(errors)} dead link(s)")
    return min(len(errors), 125)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

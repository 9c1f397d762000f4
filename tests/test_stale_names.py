"""Every code name the docs put in backticks still exists in the code.

A doc that names a function, class or module the code no longer has
sends its reader looking for nothing.  The gate reads the inline code
spans of README.md, DESIGN.md, docs/*.md and the verify skill
(.claude/skills/verify/SKILL.md), fenced blocks aside.  Each span that
is a dotted Python name, such as ``Bundler.plan_cells`` or
``repro.aio.server.serve_aio()``, must have every part occur as a word
in a ``.py`` file under ``src/``, ``bench/``, ``tests/`` or ``examples/``
(this file aside, so naming a removed name here does not excuse it).
Spans that are not dotted names, such as commands, paths, flags and
literals, are not checked.

Two files are left out until the ROADMAP items that own them land:
docs/PERFORMANCE.md, whose per-PR notebooks item 4 cuts, and
bench/README.md, whose stale names item 1 purges.  ``ALLOWED`` lists
the names the docs use on purpose that no ``.py`` file here spells:
standard-library and third-party names, tools, and environment
variables.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    *(doc for doc in sorted((ROOT / "docs").glob("*.md")) if doc.name != "PERFORMANCE.md"),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]
CODE_DIRS = ("src", "bench", "tests", "examples")
ALLOWED = {
    "StreamReader",  # asyncio
    "yaml",  # PyYAML, to parse the CI workflow
    "safe_load",
    "ruff",  # the linter
    "PATH",  # an environment variable
    "__pycache__",  # what the interpreter writes
}

FENCE = re.compile(r"^ *```.*?^ *```", re.S | re.M)
SPAN = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")
NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?:\(\))?")


def _code_words() -> set[str]:
    words: set[str] = set()
    for top in CODE_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            if path.resolve() != Path(__file__).resolve():
                words.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    return words


def test_every_backticked_name_in_the_docs_is_in_the_code():
    words = _code_words()
    stale = []
    for doc in DOCS:
        for span in SPAN.finditer(FENCE.sub("", doc.read_text())):
            name = span.group(1)
            if NAME.fullmatch(name):
                parts = name.removesuffix("()").split(".")
                missing = [part for part in parts if part not in words | ALLOWED]
                if missing:
                    stale.append(f"{doc.relative_to(ROOT)}: `{name}` ({', '.join(missing)})")
    assert not stale, "\n".join(stale)


def test_the_gate_sees_a_removed_name():
    words = _code_words()
    assert "plan_cells" in words and "TCPTransport" not in words
    assert [m.group(1) for m in SPAN.finditer("a `TCPTransport` and ``x``")] == ["TCPTransport"]

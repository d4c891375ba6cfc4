"""No definition under ``src/repro`` is left without a single mention.

A deletion tends to orphan the helpers of what it deleted.  This walks
every ``def`` and ``class`` under ``src/repro`` and fails, listing them, on
any name that occurs nowhere else as a word in ``src/``, ``benchmarks/``,
``examples/``, ``tests/`` or ``docs/`` — not called, not imported, not
exported, not tested, not documented.  Dunder methods are exempt (the
interpreter calls them).
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "benchmarks", "examples", "tests", "docs")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def test_every_definition_is_mentioned_somewhere():
    mentions = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*"):
            if path.suffix in (".py", ".md"):
                mentions.update(WORD.findall(path.read_text()))
    definitions = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            definitions.setdefault(node.name, []).append(
                f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
            )
    # Each definition is itself one mention; an orphan has no other.
    orphans = [
        where
        for name, sites in definitions.items()
        if mentions[name] <= len(sites)
        for where in sites
    ]
    assert not orphans, "defined but mentioned nowhere else:\n" + "\n".join(orphans)

"""No definition under ``src/repro`` is left without a single mention.

A deletion tends to orphan the helpers of what it deleted.  This walks
every ``def`` and ``class`` under ``src/repro`` and fails, listing them, on
any name that occurs nowhere else as a word in ``src/``, ``benchmarks/``,
``examples/``, ``tests/`` or ``docs/`` — not called, not imported, not
exported, not tested, not documented.  Dunder methods are exempt (the
interpreter calls them).  The metrics registry gets a stricter check of
its own: every metric-name constant must be used by some module of the
program besides ``registry.py``, so a deleted feature cannot leave its
counters declared as "known".
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


def test_every_registry_name_is_used_by_the_program():
    registry = ROOT / "src" / "repro" / "obs" / "registry.py"
    constants = [
        target.id
        for node in ast.parse(registry.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
        # The aggregate sets only gather the names below.
        and not target.id.startswith("KNOWN_")
        and target.id != "ENGINE_GAUGES"
    ]
    used = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        if path != registry:
            used.update(WORD.findall(path.read_text()))
    unused = [name for name in constants if name not in used]
    assert constants
    assert not unused, "registry names no module uses:\n" + "\n".join(unused)

"""Layout guard: `src/crocodai` holds only what the program runs.

Every public module-level function, class and UPPER_CASE constant of the
package, and every public method, must be named as a whole word on some
other line of `src/`, `scripts/` or `perfbench/`. A name only tests use
belongs in `tests/`. The check only reads those directories.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "crocodai"
PROGRAM_DIRS = ("src", "scripts", "perfbench")

# name -> why it stays without a caller in the program
ALLOWED = {
    "close_cdp": "a protocol operation; ROADMAP item 3 adds it to the scenario language",
}

_CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def _public_names(tree):
    """(name, line) of each module-level function, class and UPPER_CASE
    constant, and of each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and _CONSTANT.fullmatch(target.id):
                    yield target.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item.lineno


def _lines_naming():
    """word -> (path, line number) of each line of the program's Python
    files that names it as a whole word."""
    lines = defaultdict(set)
    for top in PROGRAM_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for number, text in enumerate(path.read_text().splitlines(), start=1):
                for word in re.findall(r"\w+", text):
                    lines[word].add((path, number))
    return lines


def test_every_public_name_has_a_caller_in_the_program():
    lines = _lines_naming()
    defined, unused = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, lineno in _public_names(ast.parse(path.read_text())):
            defined.add(name)
            if name.startswith("_") or name in ALLOWED:
                continue
            if not lines[name] - {(path, lineno)}:
                unused.append(f"{path.name}:{lineno} {name}")
    assert not unused, f"public names only tests use: {unused}"
    assert set(ALLOWED) <= defined, "an allowed name is gone: drop it from ALLOWED"

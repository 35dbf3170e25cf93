"""Layout guard: `src/crocodai` holds only what the program runs.

Every public module-level function, class and UPPER_CASE constant of the
package, and every public method, must be referenced by the program: some
AST node of a Python file under `src/`, `scripts/` or `perfbench/` other
than its own definition must name it. A reference is a name read (`foo`),
an attribute (`x.foo`) or a string constant that is exactly the name
(`perfbench/spans.py` wraps functions given by name). A word in a comment,
a docstring or a longer string is not a reference. A name only tests use
belongs in `tests/`. The check only reads those directories.

Every field of a dataclass declared in the package must be read by the
program: some attribute load in `src/`, `scripts/` or `perfbench/` must name
it, or the fact it stores is kept for nothing. A write-only field whose
loads only mutate it, such as a set of votes that only `.add` loads (the
relay's former `abort_votes`), passes: finding it is beyond an AST check.

The event appliers (`ledger._apply_to_state`) name no `Fraction`: debts, the
savings pot's surplus and interest paid are integers in 1 / FEE_SCALE units.
They handle exactly the event kinds that some `.apply(<chain>, "<kind>",
...)` call of the package emits, so no branch is kept for an event nothing
writes, and no payload literal carries a `"slot"`: an event's slot is
`Event.slot`.

The protocol engine (`ledger`, `stablecoin`, `relay`, `oracle`, `scenarios`)
imports nothing from the risk engine (`riskmodel`, `montecarlo`, `optimizer`)
or scipy, at any depth. Fresh interpreters show the same seam at run time:
importing `scenarios`, and the CLI's `scenario` and `oracle-tail`, load no
risk engine, and only a command that fits loads scipy.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

from conftest import write_price_csv

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "crocodai"
PROGRAM_DIRS = ("src", "scripts", "perfbench")

# name -> why it stays without a caller in the program
ALLOWED = {
    "close_cdp": "a protocol operation; ROADMAP item 3 adds it to the scenario language",
}

# Class.field -> why it stays although no attribute load names it
ALLOWED_FIELDS = {
    "PriceFeed.oracle_id": "perfbench and scenarios construct PriceFeed(i, ...) positionally",
    "FailureEstimate.ci_half_width": "written out by dataclasses.asdict in as_json",
    "AuditReport.unmatched_burns": "a monitor finding that sets ok",
    "PriceSeries.times_checked": "an InitVar: __post_init__ reads it as a parameter, never as an attribute",
}

PROTOCOL_MODULES = ("ledger", "stablecoin", "relay", "oracle", "scenarios")
RISK_IMPORTS = {"riskmodel", "montecarlo", "optimizer", "scipy"}

# module.function -> why it imports the risk engine when called
ALLOWED_IMPORTS = {
    "scenarios.builtin_portfolio": "perfbench/risk.py calls it by this name; it goes once "
                                   "perfbench calls montecarlo.builtin_portfolio",
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


def _dataclass_fields(tree):
    """(Class.field, line) of each annotated field of each @dataclass class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.lineno


def _program_trees():
    for top in PROGRAM_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield ast.parse(path.read_text())


def _references():
    """Every name that some node of the program's Python files refers to: a
    name read, an attribute or a string constant. A constant's own
    assignment stores its name, so it does not count."""
    refs = set()
    for tree in _program_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)
    return refs


def test_every_public_name_has_a_caller_in_the_program():
    refs = _references()
    defined, unused = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, lineno in _public_names(ast.parse(path.read_text())):
            defined.add(name)
            if name.startswith("_") or name in ALLOWED:
                continue
            if name not in refs:
                unused.append(f"{path.name}:{lineno} {name}")
    assert not unused, f"public names only tests use: {unused}"
    assert set(ALLOWED) <= defined, "an allowed name is gone: drop it from ALLOWED"


def test_every_dataclass_field_is_read_by_the_program():
    loads = {node.attr for tree in _program_trees() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    declared, unread = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, lineno in _dataclass_fields(ast.parse(path.read_text())):
            declared.add(name)
            if name.split(".")[1] not in loads and name not in ALLOWED_FIELDS:
                unread.append(f"{path.name}:{lineno} {name}")
    assert not unread, f"dataclass fields nothing reads: {unread}"
    assert set(ALLOWED_FIELDS) <= declared, "an allowed field is gone: drop it from ALLOWED_FIELDS"


def _applier():
    tree = ast.parse((PACKAGE / "ledger.py").read_text())
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_apply_to_state")


def test_event_appliers_build_no_fraction():
    applier = _applier()
    names = {node.id for node in ast.walk(applier) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(applier) if isinstance(node, ast.Attribute)}
    assert "Fraction" not in names


def _kinds(node):
    """The event kinds an `.apply` call's kind argument names: a string
    constant, or either branch of a conditional expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _kinds(node.body) | _kinds(node.orelse)
    return set()


def test_appliers_handle_exactly_the_emitted_events():
    emitted, slotted = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "apply" and len(node.args) == 3):
                continue
            emitted |= _kinds(node.args[1])
            payload = node.args[2]
            if isinstance(payload, ast.Dict) and any(
                    isinstance(key, ast.Constant) and key.value == "slot" for key in payload.keys):
                slotted.append(f"{path.name}:{node.lineno}")
    handled = {node.comparators[0].value for node in ast.walk(_applier())
               if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
               and node.left.id == "kind" and isinstance(node.comparators[0], ast.Constant)}
    assert handled, "no applier branch found"
    assert not handled - emitted, f"applier branches no operation emits: {sorted(handled - emitted)}"
    assert not emitted - handled, f"events no applier handles: {sorted(emitted - handled)}"
    assert not slotted, f"payloads that repeat the event's slot: {slotted}"


def _imported_names(node):
    """Every dotted part an `import` or `from` node names, module and names."""
    parts = set()
    if isinstance(node, ast.ImportFrom):
        parts |= set((node.module or "").split("."))
    for alias in node.names:
        parts |= set(alias.name.split("."))
    return parts


def test_protocol_engine_imports_nothing_from_the_risk_engine():
    found, allowed = [], set()
    for module in PROTOCOL_MODULES:
        for top in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
            owner = f"{module}.{getattr(top, 'name', '')}"
            for node in ast.walk(top):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                        _imported_names(node) & RISK_IMPORTS:
                    if owner in ALLOWED_IMPORTS:
                        allowed.add(owner)
                    else:
                        found.append(f"{module}.py:{node.lineno}")
    assert not found, f"protocol modules that import the risk engine: {found}"
    assert allowed == set(ALLOWED_IMPORTS), "an allowed import is gone: drop its entry"


_RISK_ENGINE = {f"crocodai.{name}" for name in RISK_IMPORTS - {"scipy"}}


def _fresh_modules(code, *args):
    """The modules a fresh interpreter holds after running `code`, which sets
    `code` to an exit code."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    probe = f"import sys\n{code}\nprint(code, *sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe, *map(str, args)], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    code, *modules = run.stdout.split()
    assert code == "0", run.stderr
    return set(modules)


def _cli(*argv):
    return _fresh_modules("from crocodai.cli import main\ncode = main(sys.argv[1:])", *argv)


def _scipy(modules):
    return {m for m in modules if m.split(".")[0] == "scipy"}


def test_protocol_runs_load_no_risk_engine(tmp_path):
    readme = (ROOT / "README.md").read_text()
    scenario = tmp_path / "readme.json"
    scenario.write_text(re.search(r"\*\*Scenario JSON\*\*.*?```json\n(.*?)```", readme, re.S)[1])
    runs = {
        "import": _fresh_modules("import crocodai.scenarios\ncode = 0"),
        "scenario": _cli("scenario", scenario, "--out", tmp_path / "scenario.json"),
        "oracle-tail": _cli("oracle-tail", "--trials", 10000, "--out", tmp_path / "tail.json"),
    }
    for name, modules in runs.items():
        assert "crocodai.ledger" in modules, name
        assert not (modules & _RISK_ENGINE) | _scipy(modules), name


def test_only_a_fit_loads_scipy(tmp_path):
    prices = write_price_csv(tmp_path / "prices.csv", ["BTC", "ETH", "TRX"], slots=300, seed=1)
    model = tmp_path / "model.json"
    assert _scipy(_cli("fit", "--prices", prices, "--out", model))
    for argv in (["ingest", "--prices", prices], ["optimize", "--model", model, "--cap", 0.5]):
        modules = _cli(*argv, "--out", tmp_path / "out.json")
        assert "crocodai.riskmodel" in modules and not _scipy(modules), argv[0]

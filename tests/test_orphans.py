"""No orphan code: every function, method and class in `qgen` has a
reference inside the package besides its own definition, or is named
below with the reason it stays.  A reference is a name, an attribute or
an import in the package's code; a mention in a docstring or a message is
not a caller.  The allowlist may only shrink: an entry whose name gains a
caller inside the package, or goes, fails the gate too."""

import ast
import collections
from pathlib import Path

import qgen

PACKAGE = Path(qgen.__file__).resolve().parent

#: (owner, name): why it stays without a caller in the package
ALLOWED = {
    ("ExpSeries", "exp_linear"): "called by bench/items.py and the tests; ROADMAP item 1a "
                                 "gives the benchmark its own copy and moves ExpSeries out",
    ("ExpSeries", "shift_t"): "called by bench/items.py and the tests; ROADMAP item 1a",
    ("ExpSeries", "coeff"): "called by bench/items.py and the tests; ROADMAP item 1a",
    ("ExpSeries", "reciprocal"): "called by bench/items.py and the tests; ROADMAP item 1a",
}


def _scan(package: Path):
    """The package's definitions as (module, owner, name), the owner the
    enclosing class or None, and a count of every name it references."""
    defs, refs = [], collections.Counter()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stack = [(tree, None)]
        while stack:
            node, owner = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defs.append((path.stem, owner, child.name))
                    stack.append((child, child.name if isinstance(child, ast.ClassDef)
                                  else owner))
                else:
                    stack.append((child, owner))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
            elif isinstance(node, ast.alias):
                refs[node.name] += 1
    return defs, refs


def orphans(package: Path = PACKAGE) -> set:
    """(owner, name) of each definition, dunder methods aside, whose name
    the package never references."""
    defs, refs = _scan(package)
    return {(owner, name) for _, owner, name in defs
            if not (name.startswith("__") and name.endswith("__")) and not refs[name]}


def test_every_definition_has_a_caller():
    unexplained = orphans() - set(ALLOWED)
    assert not unexplained, f"no reference inside qgen: {sorted(unexplained, key=str)}"


def test_allowlist_names_only_orphans():
    assert set(ALLOWED) <= orphans(), "an allowed name now has a caller or is gone"


def test_gate_sees_a_lost_caller(tmp_path):
    # a helper whose only call is removed becomes an orphan
    (tmp_path / "mod.py").write_text(
        "def _helper():\n    return 1\n\n\ndef main():\n    return _helper()\n")
    assert orphans(tmp_path) == {(None, "main")}
    (tmp_path / "mod.py").write_text(
        "def _helper():\n    return 1\n\n\ndef main():\n    return 1\n")
    assert orphans(tmp_path) == {(None, "main"), (None, "_helper")}

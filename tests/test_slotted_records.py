"""One way to be immutable: every class in `qgen` that declares
`__slots__` subclasses `qcore.Record`, which refuses assignment and
deletion and rebuilds a copy or an unpickled value through the class's own
constructor, or is named below with the reason it stays apart.  A slotted
class that restates that contract by hand gets it wrong in ways no caller
sees at once (a deletion that succeeds, a copy that raises).  The
allowlist may only shrink: an entry that goes, or becomes a record, fails
the gate too."""

import ast
from pathlib import Path

import qgen

PACKAGE = Path(qgen.__file__).resolve().parent

#: "module.Class": why it declares `__slots__` without being a record
ALLOWED = {
    "qeuler._PackedBinomial": "a hot-path helper, built per factor in the packed build",
    "classical.ExpSeries": "a reference route that bench/items.py imports; ROADMAP item 1a "
                           "moves it to the tests",
}


def _base_name(node: ast.expr):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def slotted_non_records(package: Path = PACKAGE) -> set:
    """"module.Class" of each class that assigns `__slots__` in its body
    and has no base named `Record`."""
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.ClassDef) and node.name != "Record"
                    and "Record" not in map(_base_name, node.bases)
                    and any(isinstance(stmt, ast.Assign) and any(
                        getattr(t, "id", None) == "__slots__" for t in stmt.targets)
                        for stmt in node.body)):
                found.add(f"{path.stem}.{node.name}")
    return found


def test_every_slotted_class_is_a_record():
    unexplained = slotted_non_records() - set(ALLOWED)
    assert not unexplained, f"slotted but not a qcore.Record: {sorted(unexplained)}"


def test_allowlist_names_only_slotted_non_records():
    assert set(ALLOWED) <= slotted_non_records(), "an allowed class is gone or is a Record"


def test_gate_sees_a_hand_rolled_record(tmp_path):
    # the shape of Poly and QRat before they became records: slots and a
    # refusing __setattr__, but no Record base
    (tmp_path / "base.py").write_text(
        "class Record:\n    __slots__ = ()\n\n\n"
        "class Spec(Record):\n    __slots__ = ('m',)\n")
    (tmp_path / "values.py").write_text(
        "import base\n\n\n"
        "class Value:\n    __slots__ = ('coeffs',)\n\n"
        "    def __setattr__(self, name, value):\n        raise AttributeError(name)\n\n\n"
        "class Plain:\n    pass\n")
    assert slotted_non_records(tmp_path) == {"values.Value"}
    (tmp_path / "values.py").write_text(
        "import base\n\n\nclass Value(base.Record):\n    __slots__ = ('coeffs',)\n")
    assert slotted_non_records(tmp_path) == set()

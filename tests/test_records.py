"""The parameter records on `qcore.Record`: the contract a frozen dataclass
gave them (immutability, field equality and hashing, the repr, the
constructor defaults and its DomainError texts), and the cold start that
not being dataclasses buys."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qgen.padic import ClassicalMonomial, PadicParams, QBracketMonomial, SeriesParams
from qgen.qcore import DomainError
from qgen.qeuler import QEulerSpec
from qgen.qgenocchi import QGenocchiSpec

F = Fraction
SRC = Path(__file__).resolve().parents[1] / "src"

# (class, fields in constructor order, repr)
RECORDS = [
    (QEulerSpec, dict(m=2, h=1, k=1, x=0, w=F(2)),
     "QEulerSpec(m=2, h=1, k=1, x=0, w=Fraction(2, 1))"),
    (QGenocchiSpec, dict(n=3, h=0, k=2, w=F(-1, 3)),
     "QGenocchiSpec(n=3, h=0, k=2, w=Fraction(-1, 3))"),
    (PadicParams, dict(p=5, N=3), "PadicParams(p=5, N=3)"),
    (SeriesParams, dict(M=40, mode="cesaro1"), "SeriesParams(M=40, mode='cesaro1')"),
    (QBracketMonomial, dict(m=2, k=2, h=0, w=F(1, 2), x=1),
     "QBracketMonomial(m=2, k=2, h=0, w=Fraction(1, 2), x=1)"),
    (ClassicalMonomial, dict(n=3, w=F(-1), c=1),
     "ClassicalMonomial(n=3, w=Fraction(-1, 1), c=1)"),
]
_IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=_IDS)
class TestRecordContract:
    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, text):
        rec = cls(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(rec, name, value)
            with pytest.raises(AttributeError):
                delattr(rec, name)
            assert getattr(rec, name) == value
        with pytest.raises(AttributeError):
            rec.extra = 1

    def test_equal_fields_give_equal_records_and_hashes(self, cls, fields, text):
        a, b = cls(**fields), cls(*fields.values())
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(tuple(fields.values()))
        assert len({a, b}) == 1

    def test_repr(self, cls, fields, text):
        assert repr(cls(**fields)) == text

    def test_copy_and_pickle_round_trip(self, cls, fields, text):
        rec = cls(**fields)
        for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert twin == rec and repr(twin) == text


def test_a_changed_field_gives_an_unequal_record():
    base = QEulerSpec(m=2, h=1)
    for changed in (QEulerSpec(m=3, h=1), QEulerSpec(m=2, h=1, k=2),
                    QEulerSpec(m=2, h=1, x=1), QEulerSpec(m=2, h=1, w=F(-1))):
        assert base != changed


def test_records_equal_only_records_of_their_own_class():
    # the same field tuple (1, 1, 1, 1, 1) in both classes
    spec = QEulerSpec(m=1, h=1, k=1, x=1, w=F(1))
    mono = QBracketMonomial(m=1, k=1, h=1, w=F(1), x=1)
    assert spec != mono and mono != spec
    assert spec != (1, 1, 1, 1, F(1)) and (1, 1, 1, 1, F(1)) != spec


@pytest.mark.parametrize("rec, text", [
    (QEulerSpec(2, 1), "QEulerSpec(m=2, h=1, k=1, x=0, w=Fraction(1, 1))"),
    (QGenocchiSpec(3, 0), "QGenocchiSpec(n=3, h=0, k=1, w=Fraction(1, 1))"),
    (PadicParams(), "PadicParams(p=3, N=2)"),
    (SeriesParams(), "SeriesParams(M=400, mode='direct')"),
    (QBracketMonomial(2), "QBracketMonomial(m=2, k=1, h=1, w=Fraction(1, 1), x=0)"),
    (ClassicalMonomial(3), "ClassicalMonomial(n=3, w=Fraction(1, 1), c=0)"),
], ids=_IDS)
def test_constructor_defaults(rec, text):
    assert repr(rec) == text


@pytest.mark.parametrize("build, message", [
    (lambda: QEulerSpec(-1, 1), "need m >= 0, k >= 1, x >= 0"),
    (lambda: QEulerSpec(1, 1, k=0), "need m >= 0, k >= 1, x >= 0"),
    (lambda: QEulerSpec(1, 1, x=-1), "need m >= 0, k >= 1, x >= 0"),
    (lambda: QGenocchiSpec(-1, 1), "need n >= 0, k >= 1"),
    (lambda: QGenocchiSpec(1, 1, k=0), "need n >= 0, k >= 1"),
    (lambda: PadicParams(p=9), "p = 9 is not an odd prime"),
    (lambda: PadicParams(p=2), "p = 2 is not an odd prime"),
    (lambda: PadicParams(N=0), "level N must be >= 1"),
    (lambda: PadicParams(p=10**25), "p = 10000000000000000000000000 is too large: "
     "primality cannot be certified deterministically at or above 3317044064679887385961981"),
    (lambda: SeriesParams(M=0), "series truncation M must be >= 1"),
    (lambda: SeriesParams(mode="abel"), "unknown series mode 'abel'"),
])
def test_invalid_arguments_raise_the_domain_error_texts(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message


def test_cold_query_imports_no_dataclasses():
    # `dataclasses` imports the other four; each costs start-up time, and
    # so does `typing`, which no `qgen` module needs.  -S keeps the `.pth`
    # files of site-packages from importing any of them
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from qgen import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = cli.main(['qnum', '--n', '3', '--q', '2/3'])\n"
        "assert code == 0 and '\"value\":\"19/9\"' in out.getvalue(), out.getvalue()\n"
        "print(*[m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'typing')"
        " if m in sys.modules])\n"
    )
    res = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "\n"

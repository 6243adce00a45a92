"""Exact scalars, polynomials and rational functions in q, and the
q-combinatorial primitives built on them.

All arithmetic is exact: scalars are `fractions.Fraction`, polynomials are
dense coefficient tuples over the rationals (lowest degree first) that hold
an integral coefficient as a Python `int` and only a non-integral one as a
`Fraction`, and rational functions are kept fully reduced with a monic
denominator, so equality is structural and evaluation at an admissible
rational point (including the q -> 1 limit of a reduced quotient) is total
and exact.  Every coefficient division builds a `Fraction` (`_quot`), so no
float ever appears.

Polynomials whose coefficients are all `int` run on integer kernels over
coefficient tuples (`_int_mul`): products of two factors longer than
`_KRONECKER_MIN` terms go through signed Kronecker substitution
(`_kronecker_mul`: one big-integer product over byte-aligned slots),
shorter ones through the schoolbook loop, and neither result is made
canonical again; a monomial factor is a shift and a scale.
One division loop (`_coeff_divmod`) serves ints and Fractions alike: ints
stay ints over a divisor with leading coefficient 1 or -1, and in an exact
division by a primitive divisor.  At the symbolic generator the Gaussian
triangle (`_gauss_poly_rows`) adds shifted coefficient tuples, with no
product, and wraps each entry once through the trusted constructor
`Poly._from_coeffs`; the factorial quotient, and with it a single entry
`gauss_binom(n, k)`, is telescoped (`_telescoped_binom`), and q-integers
are built directly.  At a rational q other than +-1 a single Gaussian
binomial is the same telescoped quotient in integers (`_rational_binom`).
`Fraction` polynomials and the rational-q triangle take the generic
loops, which give the same values.

Every q-primitive is generic over the evaluation domain: pass a Fraction
for a fixed rational q, or the symbolic generator (`q` / `QRat(q)`) to get
a polynomial or rational function in q.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
import threading
from collections import OrderedDict
from collections.abc import Iterable
from fractions import Fraction


class DomainError(ValueError):
    """An operation was evaluated outside its mathematical domain."""


class Record:
    """Base of the immutable parameter records (`QEulerSpec`,
    `SeriesParams`, ...).  A subclass lists its fields in `__slots__`, in
    constructor order; its `__init__` validates its arguments and then
    stores each field through `object.__setattr__`.  Equality, hashing and
    the repr run over the fields as a frozen dataclass's do: a record
    equals only a record of the same class with equal fields, hashes as the
    tuple of its fields, and prints as `Name(field=value, ...)`.  Plain
    classes rather than dataclasses, because importing `dataclasses` also
    imports `inspect`, `ast`, `dis` and `tokenize`, and building each class
    execs generated code: together about half of what a cold query spends
    above the bare interpreter's start-up."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def to_frac(v) -> Fraction:
    """Coerce an int, Fraction, or "num/den" string to an exact rational."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return parse_rat(v)
    raise TypeError(f"cannot interpret {v!r} as an exact rational")


def parse_rat(text: str) -> Fraction:
    """Parse "num/den" or an integer literal."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad rational literal: {text!r}") from exc


def rat_str(v) -> str:
    """Canonical rendering: "num/den", with the "/den" omitted when den == 1."""
    v = to_frac(v)
    try:
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    except ValueError as exc:  # the interpreter's limit on int-to-str digits
        raise _render_limit_error() from exc


def _render_limit_error() -> DomainError:
    return DomainError(f"exact value has more than {sys.get_int_max_str_digits()} "
                       "digits, the interpreter's limit for rendering an integer")


def check_power_renders(base: int, exp: int) -> None:
    """Raise `rat_str`'s DomainError when base^exp, base >= 2, has more
    digits than the interpreter renders, without building a power that
    surely has: one of 2^(4 limit) or more, since 16 > 10."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and (exp * (base.bit_length() - 1) >= 4 * limit or base ** exp >= 10 ** limit):
        raise _render_limit_error()


def _coeff(v):
    """Canonical coefficient: an int when integral, else a Fraction."""
    if type(v) is int:
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, int):  # bool and other int subclasses
        return int(v)
    return _coeff(to_frac(v))


def _quot(a, b):
    """Exact coefficient quotient a/b, canonical as in `_coeff`."""
    if type(a) is int and type(b) is int:
        quo, rem = divmod(a, b)
        return Fraction(a, b) if rem else quo
    return _coeff(Fraction(a, b))


_INT_ONLY = {int}

#: both factors need more terms than this for the Kronecker product; below
#: it, packing costs more than the schoolbook loop saves
_KRONECKER_MIN = 12


def _all_int(cs) -> bool:
    """Every canonical coefficient is an `int` (the others are Fractions)."""
    return set(map(type, cs)) <= _INT_ONLY


def _slot_size(bound: int) -> int:
    """The bytes of a signed slot that holds every integer of absolute
    value at most `bound`: 8 s - 1 >= bound.bit_length() value bits."""
    return (bound.bit_length() + 8) // 8


def _kronecker_read(value: int, n: int, size: int) -> tuple:
    """The coefficients c_0..c_(n-1) of value = sum_i c_i 2^(8 size i),
    each read from a signed size-byte slot, when every |c_i| < 2^(8 size - 1).

    Slot i of the bias Z holds 2^(8 size - 1), so value + Z has every slot
    in [0, 2^(8 size)) (nothing carries) and (value + Z) ^ Z holds each
    c_i in two's complement."""
    bias = int.from_bytes((b"\x00" * (size - 1) + b"\x80") * n, "little")
    data = ((value + bias) ^ bias).to_bytes(n * size, "little")
    return tuple([int.from_bytes(data[i:i + size], "little", signed=True)
                  for i in range(0, n * size, size)])


def _kronecker_mul(a: tuple, b: tuple) -> tuple:
    """Product of two nonzero int coefficient tuples by signed Kronecker
    substitution: evaluate each at var = 2^(8s) as one int, multiply once,
    and read the product's coefficients back from s-byte slots
    (`_kronecker_read`).

    The slot holds every product coefficient, |c| <= min(len) max|a| max|b|,
    as a signed s-byte integer.  Slot i of the bias Z holds 2^(8s-1), so
    (U ^ Z) - Z turns the unsigned packing U of the two's-complement slots
    into the signed value."""
    size = _slot_size(min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b)))
    top = b"\x00" * (size - 1) + b"\x80"

    def pack(cs):
        bias = int.from_bytes(top * len(cs), "little")
        raw = b"".join([c.to_bytes(size, "little", signed=True) for c in cs])
        return (int.from_bytes(raw, "little") ^ bias) - bias

    pa = pack(a)
    pb = pa if b is a else pack(b)  # one object: the big-integer squaring
    return _kronecker_read(pa * pb, len(a) + len(b) - 1, size)


def _coeff_mul(a, b) -> list:
    """Schoolbook product of two coefficient sequences of ints or Fractions."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _int_mul(a: tuple, b: tuple) -> tuple:
    """Product of two nonzero int coefficient tuples, with no trailing zero:
    by Kronecker substitution when both have more than `_KRONECKER_MIN`
    terms, by the schoolbook loop otherwise."""
    if min(len(a), len(b)) > _KRONECKER_MIN:
        return _kronecker_mul(a, b)
    return tuple(_coeff_mul(a, b))


def _scaled(cs, r) -> tuple:
    """The canonical coefficients of r times cs, for a nonzero canonical
    coefficient r (an int or a Fraction), in one pass: an int coefficient over an integer scale stays an int,
    and one `_quot` gives each other int product."""
    a, b = r.numerator, r.denominator
    if not _all_int(cs):
        return tuple([_coeff(c * r) for c in cs])
    if b == 1:
        return tuple([c * a for c in cs])
    return tuple([_quot(c * a, b) for c in cs])


def _coeff_divmod(a, d):
    """Quotient and remainder, as tuples, of coefficient sequences of ints
    or Fractions, the divisor's leading coefficient nonzero.  Each quotient
    coefficient is the top remainder coefficient times the divisor's
    leading one when that is 1 or -1, and `_quot` of the two otherwise, so
    ints stay ints over a leading 1 or -1 and in an exact division by a
    primitive divisor.  A Fraction remainder coefficient may be integral;
    `Poly` makes it canonical.  Only the divisor's nonzero lower terms are
    visited, so a sparse divisor such as 1 + q^e costs one update per step,
    not e."""
    dd = len(d) - 1
    if len(a) <= dd:
        return (), tuple(a)
    lead = d[-1]
    unit = lead if lead in (1, -1) else 0
    terms = [(i, c) for i, c in enumerate(d[:-1]) if c]
    rem = list(a)
    quo = [0] * (len(a) - dd)
    for shift in range(len(quo) - 1, -1, -1):
        top = rem[shift + dd]
        if top:
            f = top * unit if unit else _quot(top, lead)
            quo[shift] = f
            for i, c in terms:
                rem[shift + i] -= f * c
    del rem[dd:]
    while rem and not rem[-1]:
        rem.pop()
    return tuple(quo), tuple(rem)


def _power(base, e: int, one):
    """base ** e for e >= 0 by repeated squaring from the low bit: no
    product by `one` and no squaring after the top bit, so e's bit length
    plus its popcount minus 2 products."""
    result = None
    while e:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if e:
            base = base * base
    return one if result is None else result


def falling(n: int, r: int) -> int:
    """Falling factorial n(n-1)...(n-r+1)."""
    out = 1
    for i in range(r):
        out *= n - i
    return out


def _geometric_residues(first: int, ratio: int, size: int, modulus: int) -> list[int]:
    """The residues of first * ratio^i modulo `modulus` for i < size, by
    doubling: the first n residues times ratio^n are the next n, so each
    doubling is one `pow` and one list comprehension."""
    table = [first % modulus][:size]
    while len(table) < size:
        step = pow(ratio, len(table), modulus)
        table += [v * step % modulus for v in itertools.islice(table, size - len(table))]
    return table


def _common_numerators(cs) -> tuple[int, list[int]]:
    """(D, N) with cs[i] = N[i] / D, D the least common denominator of the
    canonical coefficients `cs`."""
    if _all_int(cs):
        return 1, list(cs)
    den = math.lcm(*[c.denominator for c in cs if type(c) is not int])
    return den, [c * den if type(c) is int else c.numerator * (den // c.denominator)
                 for c in cs]


def _rational_value(cs, point: Fraction) -> Fraction:
    """sum_i cs[i] point^i as one Fraction: with point = a/d and the
    coefficients N[i] / D, one integer Horner pass gives
    sum_i N[i] a^i d^(n-i), which is D d^n times the value."""
    if not cs:
        return Fraction(0)
    den, nums = _common_numerators(cs)
    a, d = point.numerator, point.denominator
    acc = 0
    if d == 1:
        for c in reversed(nums):
            acc = acc * a + c
        return Fraction(acc, den)
    dp = 1
    for c in reversed(nums):
        acc = acc * a + c * dp
        dp *= d
    return Fraction(acc, den * (dp // d))


class _TableMemo:
    """Tables that do not depend on the degree or index a caller asks for,
    kept by their exact inputs for reuse up to `MEMO_BITS` retained bits:
    each integer's bits plus `_INT_HEADER_BITS` for its object.  The least
    recently used entries are dropped first, and a table larger than the
    whole budget is returned without being kept.  Entries are tuples, so no
    caller can change one; one reentrant lock keeps the bookkeeping whole
    when threads share the memo, and lets a table's build read the tables
    it is built from."""

    def __init__(self, budget: int):
        self.budget = budget
        self.bits = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key, build):
        """The entry for `key`, from `build()` when it is not kept; an
        entry is a pair whose first item is a tuple of integers."""
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                return hit[0]
            entry = build()
            self._keep(key, entry)
            return entry

    def prefix(self, key, size: int, extend) -> tuple:
        """The first `size` items of the table kept under `key`, a table
        whose item j depends only on its inputs up to j.  When fewer are
        kept, `extend(kept, size)` returns the table to `size` items from
        the kept prefix (an empty tuple when none is kept), and the longer
        table replaces the shorter one."""
        with self._lock:
            hit = self._entries.get(key)
            kept = hit[0][0] if hit is not None else ()
            if len(kept) >= size:
                if hit is not None:
                    self._entries.move_to_end(key)
                return kept[:size]
            table = tuple(extend(kept, size))
            self._keep(key, (table,))
            return table

    def _keep(self, key, entry) -> None:
        bits = sum(map(int.bit_length, entry[0])) + _INT_HEADER_BITS * len(entry[0])
        old = self._entries.pop(key, None)
        if old is not None:
            self.bits -= old[1]
        if bits <= self.budget:
            self._entries[key] = entry, bits
            self.bits += bits
            while self.bits > self.budget:
                _, (_, dropped) = self._entries.popitem(last=False)
                self.bits -= dropped

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.bits = 0


# The memo holds the tables of recent calls: `padic`'s bracket numerators
# and weight distributions, which a sweep over the degree m at fixed q, w,
# k, h, x and level reads alike, and `classical`'s reciprocal, power and
# Bernoulli tables, which every index up to the longest one asked for reads.  2^22
# bits is 512 KiB: a level-7 table at p = 3 modulo p^17 takes about a
# seventh of it, and the Euler table to order 446, the longest within the
# default term budget, about a tenth; a larger budget adds no reuse in a
# verify grid or the benchmark's passes, while a level-9 exact table
# (about 48 MB) is never kept.
MEMO_BITS = 1 << 22
_INT_HEADER_BITS = 256  # a small int's object and its tuple slot, in bits
_MEMO = _TableMemo(MEMO_BITS)


class Poly:
    """Dense univariate polynomial over the rationals; coefficient i is the
    coefficient of var**i, an `int` when integral and a `Fraction`
    otherwise.  Normalized: no trailing zero coefficients, so the empty
    tuple is the zero polynomial.  Immutable and hashable; since
    3 == Fraction(3) and both hash alike, equality and hashing do not
    depend on the coefficient type."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable = (), var: str = "q"):
        cs = [c if type(c) is int else _coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _from_coeffs(cls, coeffs: tuple, var: str = "q") -> "Poly":
        """Trusted constructor: the caller guarantees a tuple of canonical
        coefficients without a trailing zero, so none is coerced."""
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", coeffs)
        object.__setattr__(out, "var", var)
        return out

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise DomainError(f"{self} is not a constant")
        return Fraction(self.coeffs[0]) if self.coeffs else Fraction(0)

    def _join_var(self, other: "Poly") -> str:
        if self.var == other.var or other.is_constant:
            return self.var
        if self.is_constant:
            return other.var
        raise ValueError(f"mixed variables {self.var!r} and {other.var!r}")

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly((other,), self.var)
        return None

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,), self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, "poly"))

    def __bool__(self):
        return bool(self.coeffs)

    def __neg__(self):
        return Poly((-c for c in self.coeffs), self.var)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        var = self._join_var(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out, var)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        var = self._join_var(other)
        if self.is_zero or other.is_zero:
            return Poly((), var)
        a, b = self.coeffs, other.coeffs
        if not any(a[:-1]):
            a, b = b, a
        if not any(b[:-1]):  # b = c var^s: a shift and a scale
            return Poly._from_coeffs((0,) * (len(b) - 1) + _scaled(a, b[-1]), var)
        if _all_int(a) and _all_int(b):
            return Poly._from_coeffs(_int_mul(a, b), var)
        return Poly(_coeff_mul(a, b), var)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise DomainError("negative power of a Poly; promote to QRat")
        return _power(self, e, Poly((1,), self.var))

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        var = self._join_var(other)
        quo, rem = _coeff_divmod(self.coeffs, other.coeffs)
        wrap = Poly._from_coeffs if _all_int(quo + rem) else Poly
        return wrap(quo, var), wrap(rem, var)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "Poly":
        """Division that must leave no remainder."""
        quo, rem = divmod(self, other)
        if not rem.is_zero:
            raise ArithmeticError(f"{self} is not divisible by {other}")
        return quo

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return Poly._from_coeffs(_scaled(self.coeffs, 1 / Fraction(lead)), self.var)

    def __call__(self, point):
        """Evaluate by Horner's rule.  `point` may be an int, a "num/den"
        string or a Fraction (exact evaluation, one Fraction), a Poly
        (composition), or a QRat."""
        if isinstance(point, (int, str, Fraction)):
            return _rational_value(self.coeffs, to_frac(point))
        acc = point * 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def shifted(self, a) -> "Poly":
        """Substitute var -> var + a, for a rational a.

        With a = u/v, D the common denominator of the coefficients and
        n = deg, r(y) = D v^n p((y + u)/v) has the integer coefficients
        D c_i v^(n-i) before the shift; shifting them by the integer u (the
        Taylor shift: n passes of c_j += u c_(j+1)) gives r, and
        p(x + a) = r(v x) / (D v^n) has coefficient j equal to
        r_j / (D v^(n-j))."""
        a = to_frac(a)
        if not a or len(self.coeffs) < 2:
            return self
        den, cs = _common_numerators(self.coeffs)
        u, v = a.numerator, a.denominator
        n = len(cs) - 1
        if v != 1:
            vp = 1
            for i in range(n - 1, -1, -1):
                vp *= v
                cs[i] *= vp
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                cs[j] += u * cs[j + 1]
        if den == 1 and v == 1:
            return Poly._from_coeffs(tuple(cs), self.var)
        scale = den
        out = [0] * (n + 1)
        for j in range(n, -1, -1):
            out[j] = _quot(cs[j], scale)
            scale *= v
        return Poly._from_coeffs(tuple(out), self.var)

    def coeff_strings(self) -> list[str]:
        """Canonical JSON form: coefficient strings, lowest degree first."""
        return [rat_str(c) for c in self.coeffs]

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(rat_str(c))
            else:
                mon = self.var if i == 1 else f"{self.var}^{i}"
                if c == 1:
                    parts.append(mon)
                elif c == -1:
                    parts.append(f"-{mon}")
                else:
                    parts.append(f"{rat_str(c)}*{mon}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r}, var={self.var!r})"


def _primitive(cs) -> list:
    """The coefficients scaled to coprime integers with a positive leading
    one (the primitive part)."""
    ints = _common_numerators(cs)[1]
    g = math.gcd(*ints)
    return [c // g for c in ints] if ints[-1] > 0 else [-c // g for c in ints]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic polynomial GCD over the rationals.

    Euclid on primitive integer parts: each remainder is a pseudo-remainder
    (the dividend scaled by the divisor's leading coefficient as needed)
    divided by its content.  A GCD over Q is defined up to a constant, so
    the monic result is the one Fraction remainders give, without their
    coefficient swell."""
    if a.is_zero or b.is_zero:
        return (a + b).monic()
    a_cs, b_cs = _primitive(a.coeffs), _primitive(b.coeffs)
    while b_cs:
        lead, db = b_cs[-1], len(b_cs) - 1
        r = list(a_cs)
        terms = [(i, c) for i, c in enumerate(b_cs) if c]
        while len(r) > db:
            top, shift = r[-1], len(r) - 1 - db
            g = math.gcd(top, lead)
            if lead != g:
                r = [c * (lead // g) for c in r]
            top //= g
            for i, c in terms:
                r[shift + i] -= top * c
            while r and not r[-1]:
                r.pop()
        a_cs, b_cs = b_cs, _primitive(r) if r else r
    return Poly(a_cs, a._join_var(b)).monic()


class QRat:
    """Reduced rational function num/den with rational coefficients.

    Invariants: den is nonzero, monic, and coprime to num, so structural
    equality is semantic equality and evaluation at q0 with den(q0) != 0
    is exact.  In particular a quotient whose q -> 1 limit exists reduces
    to a form with den(1) != 0, making the limit a plain evaluation."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if not isinstance(num, Poly):
            num = Poly((to_frac(num),)) if not isinstance(num, (list, tuple)) else Poly(num)
        if not isinstance(den, Poly):
            den = Poly((to_frac(den),)) if not isinstance(den, (list, tuple)) else Poly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in rational function")
        if num.is_zero:
            den = Poly((1,), den.var)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lead = den.coeffs[-1]
            if lead != 1:
                num = num * Fraction(1, lead)
                den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _from_reduced(cls, num: Poly, den: Poly) -> "QRat":
        """Trusted constructor: the caller guarantees the invariants (den
        nonzero and monic, coprime to num, den = 1 when num = 0), so no
        GCD runs.  Only for callers that reduced the pair themselves."""
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("QRat is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, QRat):
            return other
        if isinstance(other, (int, Fraction, Poly)):
            return QRat(other if isinstance(other, Poly) else Poly((to_frac(other),)))
        return None

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise DomainError(f"{self} is not a constant")
        return self.num.constant_value() / self.den.constant_value()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs, "qrat"))

    def __bool__(self):
        return not self.is_zero

    def __neg__(self):
        return QRat(-self.num, self.den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QRat(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return QRat(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, e: int):
        if e >= 0:
            return QRat(self.num ** e, self.den ** e)
        if self.is_zero:
            raise ZeroDivisionError("negative power of zero")
        return QRat(self.den ** (-e), self.num ** (-e))

    def evaluate(self, point) -> Fraction:
        """Exact evaluation at a rational point with den(point) != 0."""
        point = to_frac(point)
        dv = self.den(point)
        if dv == 0:
            raise DomainError(f"pole at q = {rat_str(point)}")
        return self.num(point) / dv

    def at_one(self) -> Fraction:
        """Exact q -> 1 limit of the reduced quotient."""
        return self.evaluate(Fraction(1))

    def to_obj(self):
        """Serialization contract: {"num": [...], "den": [...]}, lowest
        degree first; constants collapse to the plain rational string."""
        if self.is_constant:
            return rat_str(self.constant_value())
        return {"num": self.num.coeff_strings(), "den": self.den.coeff_strings()}

    def __str__(self):
        if self.den == Poly((1,)):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"QRat({self.num!r}, {self.den!r})"


#: the symbolic generator as a polynomial, and embedded in the rational-function field
q = Poly((0, 1), "q")
q_sym = QRat(q)

Scalar = Fraction | Poly | QRat


def is_zero_scalar(v) -> bool:
    if isinstance(v, (Poly, QRat)):
        return v.is_zero
    return to_frac(v) == 0


def q_power(qv, e: int):
    """qv**e for any integer e, promoting a Poly base to QRat when e < 0."""
    if e >= 0:
        return qv ** e
    if isinstance(qv, Poly):
        return QRat(Poly((1,), qv.var), qv ** (-e))
    if isinstance(qv, QRat):
        return qv ** e
    qf = to_frac(qv)
    if qf == 0:
        raise DomainError("negative power of q = 0")
    return qf ** e


def _domain_zero(qv):
    if isinstance(qv, (Poly, QRat)):
        return qv * 0
    return Fraction(0)


def _is_generator(qv) -> bool:
    """qv is the symbolic generator as a Poly (in any variable)."""
    return isinstance(qv, Poly) and qv.coeffs == (0, 1)


def q_int(n: int, qv=None):
    """[n]_q = (1 - q^n)/(1 - q) = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise DomainError("q-integer needs n >= 0")
    if qv is None:
        qv = q
    if not isinstance(qv, (Poly, QRat)):
        qf = to_frac(qv)
        if qf == 1:
            return Fraction(n)
        return (1 - qf ** n) / (1 - qf)
    if _is_generator(qv):
        return Poly._from_coeffs((1,) * n, qv.var)
    acc = _domain_zero(qv)
    pw = qv ** 0
    for _ in range(n):
        acc = acc + pw
        pw = pw * qv
    return acc


def q_bracket_neg(x: int, qv=None):
    """[x]_{-q} = (1 - (-q)^x)/(1 + q)."""
    if x < 0:
        raise DomainError("[x]_{-q} needs x >= 0")
    if qv is None:
        qv = q
    if not isinstance(qv, (Poly, QRat)):
        qf = to_frac(qv)
        if qf == -1:
            raise DomainError("[x]_{-q} undefined at q = -1")
        return (1 - (-qf) ** x) / (1 + qf)
    num = 1 - (-qv) ** x
    den = 1 + qv
    if isinstance(qv, Poly):
        # 1 - (-q)^x is always divisible by 1 + q
        return num.exact_div(den)
    return num / den


def q_factorial(n: int, qv=None):
    """[n]_q! = [n]_q [n-1]_q ... [1]_q, with the empty product equal to 1."""
    if qv is None:
        qv = q
    acc = qv ** 0
    for i in range(1, n + 1):
        acc = acc * q_int(i, qv)
    return acc


def _shift_add(a: tuple, b: tuple, s: int) -> tuple:
    """Coefficients of a + var^s b, for int tuples with len(a) <= s + len(b)."""
    if len(a) <= s:
        return a + (0,) * (s - len(a)) + b
    return a[:s] + tuple(map(operator.add, a[s:], b)) + b[len(a) - s:]


def _gauss_rows(n: int, k: int, qv, alt: bool):
    """Rows 0..n of the Gaussian triangle, each cut off at column k, by the
    additive recursion C(m,j) = C(m-1,j-1) + q^j C(m-1,j), or with alt=True
    the mirrored form C(m,j) = q^(m-j) C(m-1,j-1) + C(m-1,j)."""
    if _is_generator(qv):
        yield from _gauss_poly_rows(n, k, qv.var, alt)
        return
    one = qv ** 0
    qpows = [one]
    for _ in range(n):
        qpows.append(qpows[-1] * qv)
    row = [one]
    yield row
    for m in range(1, n + 1):
        prev = row
        row = [one]
        for j in range(1, min(m - 1, k) + 1):
            if alt:
                row.append(qpows[m - j] * prev[j - 1] + prev[j])
            else:
                row.append(prev[j - 1] + qpows[j] * prev[j])
        if m <= k:
            row.append(one)
        yield row


def _gauss_poly_rows(n: int, k: int, var: str, alt: bool):
    """`_gauss_rows` at the symbolic generator: each entry is the shifted
    sum of two int coefficient tuples above it, with no product, wrapped
    once as a Poly.  Only the primary form uses the symmetry
    C(m,j) = C(m,m-j), computing columns j <= m/2 and reusing them above,
    so the mirrored form stays an independent recursion."""
    one = Poly._from_coeffs((1,), var)
    row = [one]
    yield row
    for m in range(1, n + 1):
        prev, row = row, [one]
        top = min(m, k)
        last = top if alt else min(top, m // 2)
        for j in range(1, last + 1):
            if j == m:
                row.append(one)
                continue
            if alt:
                cs = _shift_add(prev[j].coeffs, prev[j - 1].coeffs, m - j)
            else:
                cs = _shift_add(prev[j - 1].coeffs, prev[j].coeffs, j)
            row.append(Poly._from_coeffs(cs, var))
        row += [row[m - j] for j in range(last + 1, top + 1)]
        yield row


def _gauss_entry(n: int, k: int, qv, alt: bool):
    if qv is None:
        qv = q
    if k < 0 or k > n:
        return _domain_zero(qv)
    for row in _gauss_rows(n, k, qv, alt):
        pass
    return row[k]


def gauss_binom(n: int, k: int, qv=None):
    """Gaussian binomial coefficient.  At the symbolic generator it is the
    telescoped factorial quotient of `gauss_binom_factorial`, k(n - k) + 1
    coefficients from min(k, n - k) steps; at a rational q other than 1
    and -1 it is the same quotient in integers (`_rational_binom`); at any
    other q it is the additive recursion C(n+1,k) = C(n,k-1) + q^k C(n,k)
    with a per-call row table."""
    if _is_generator(q if qv is None else qv):
        return gauss_binom_factorial(n, k, qv)
    if isinstance(qv, (int, Fraction)) and qv not in (1, -1) and 0 <= k <= n:
        return _rational_binom(n, min(k, n - k), Fraction(qv))
    return _gauss_entry(n, k, qv, False)


def _rational_binom(n: int, r: int, point: Fraction) -> Fraction:
    """C(n, r)_q at q = u/v, u/v not 1 or -1, as the telescoped quotient in
    integers: prod_i (1 - q^(n-r+i)) / (1 - q^i) over i = 1..r, each factor
    1 - q^s = (v^s - u^s) / v^s, is
    prod_i (v^(n-r+i) - u^(n-r+i)) / prod_i (v^i - u^i) / v^(r(n-r)).
    v^(r(n-r)) C(n, r)_q is an integer, so the first division is exact;
    no factor v^i - u^i vanishes, since u^i = v^i forces u/v = +-1."""
    u, v = point.numerator, point.denominator
    top = math.prod(v ** (n - r + i) - u ** (n - r + i) for i in range(1, r + 1))
    bottom = math.prod(v ** i - u ** i for i in range(1, r + 1))
    return Fraction(top // bottom, v ** (r * (n - r)))


def gauss_binom_triangle(n_max: int, qv=None, alt: bool = False) -> list:
    """All Gaussian binomials up to n_max in one recursion pass; returns
    rows[n][k].  alt=True uses the mirrored recursion form."""
    return list(_gauss_rows(n_max, n_max, q if qv is None else qv, alt))


def gauss_binom_alt(n: int, k: int, qv=None):
    """Gaussian binomial by the mirrored recursion
    C(n+1,k) = q^(n+1-k) C(n,k-1) + C(n,k)."""
    return _gauss_entry(n, k, qv, True)


def gauss_binom_factorial(n: int, k: int, qv=None):
    """Gaussian binomial as the q-factorial quotient [n]!/([n-k]! [k]!).

    At the symbolic generator the quotient is telescoped: with
    r = min(k, n-k), it is prod_{i=1}^{r} (1 - q^(n-r+i)) / (1 - q^i), and
    after step i the partial product is the polynomial C(n-r+i, i)_q.  Each
    step is a shift-subtract and an exact division by 1 - q^i, a prefix sum
    along each residue class mod i.  Any other q takes the three
    q-factorials and one division."""
    if qv is None:
        qv = q
    if k < 0 or k > n:
        return _domain_zero(qv)
    if _is_generator(qv):
        return Poly._from_coeffs(_telescoped_binom(n, min(k, n - k)), qv.var)
    num = q_factorial(n, qv)
    den = q_factorial(n - k, qv) * q_factorial(k, qv)
    if isinstance(qv, Poly):
        return num.exact_div(den)
    if is_zero_scalar(den):
        raise DomainError("q-factorial quotient undefined at this q")
    return num / den


def _telescoped_binom(n: int, r: int) -> tuple:
    """Coefficients of C(n, r)_q as the telescoped factorial quotient."""
    cs = (1,)
    for i in range(1, r + 1):
        s = n - r + i
        prod = tuple(map(operator.sub, cs + (0,) * s, (0,) * s + cs))
        # B (1 - q^i) = A gives B_j = A_j + B_(j-i); B has i fewer terms
        out = [0] * (len(prod) - i)
        for c in range(i):
            out[c::i] = itertools.accumulate(prod[c:len(out):i])
        cs = tuple(out)
    return cs


def gauss_binom_compositions(n: int, k: int) -> Poly:
    """Brute-force oracle: sum q^(d1 + 2 d2 + ... + k dk) over all
    compositions d0 + ... + dk = n - k into k + 1 nonnegative parts."""
    if k < 0 or k > n:
        return Poly()
    counts: dict[int, int] = {}

    def place(i: int, remaining: int, wsum: int):
        if i == k:
            w = wsum + k * remaining
            counts[w] = counts.get(w, 0) + 1
            return
        for v in range(remaining + 1):
            place(i + 1, remaining - v, wsum + i * v)

    place(0, n - k, 0)
    top = max(counts)
    return Poly([counts.get(i, 0) for i in range(top + 1)])


def pochhammer_q(b, n: int, qv=None, ratio_exponent: int = 1):
    """(b; q^e)_n = prod_{i=1}^{n} (1 - b q^(e(i-1))) with e = ratio_exponent."""
    if n < 0:
        raise DomainError("pochhammer needs n >= 0")
    if qv is None:
        qv = q
    if ratio_exponent < 0 and isinstance(qv, Poly):
        qv = QRat(qv)
    ratio = q_power(qv, ratio_exponent)
    acc = None
    cur = qv ** 0
    for _ in range(n):
        factor = (-b) * cur + 1
        acc = factor if acc is None else acc * factor
        cur = cur * ratio
    if acc is None:
        acc = qv ** 0
    return acc


def inv_pochhammer_coeff(n: int, k: int, qv=None):
    """Coefficient of b^k in 1/(b;q)_n, which is the Gaussian binomial
    C(n+k-1, k)_q; these are the series weights of the boundary expansions."""
    if n < 1:
        raise DomainError("reciprocal pochhammer needs n >= 1")
    if k < 0:
        return _domain_zero(qv if qv is not None else q)
    return gauss_binom(n + k - 1, k, qv)


def pochhammer_b_coeffs(n: int, qv=None) -> list:
    """Expand prod_{i=1}^{n}(1 - b q^(i-1)) as a polynomial in b; returns
    the coefficient list [c0, ..., cn] over the q-domain."""
    if qv is None:
        qv = q
    one = qv ** 0
    coeffs = [one]
    qpow = one
    for _ in range(n):
        new = []
        for j in range(len(coeffs) + 1):
            val = coeffs[j] if j < len(coeffs) else None
            if j > 0:
                sub = qpow * coeffs[j - 1]
                val = -sub if val is None else val - sub
            new.append(val)
        coeffs = new
        qpow = qpow * qv
    return coeffs

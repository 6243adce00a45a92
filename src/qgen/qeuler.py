"""Higher-order, twisted, and multiple twisted q-Euler families: closed
forms (exact at a rational q, or symbolic in the rational-function field),
boundary series evaluators, and generating-function comparators.

The closed form for the order-k family with weight h, twist w, and shift x is

    [2]_q^k (1-q)^{-m} sum_{j=0}^{m} C(m,j) (-1)^j q^{xj}
                              / prod_{l=0}^{k-1} (1 + w q^{h+j-l}),

which the fermionic level sums of `padic` approximate p-adically and the
series below approximate for 0 < q < 1.  This is the only closed-form code
path: the twisted q-Euler number and every q-Genocchi value (`qgenocchi`)
are this sum at fixed parameters times an integer scale.  It has two
routes (`_euler_sum`): one integer accumulation (`_accumulate`) at a
rational q, and the build over the known denominator at the generator,
which for |w| != 1 is the same accumulation at q = X = 2^B, read back into
the coefficients of the numerator and of the known denominator, and for
|w| = 1 a row build in integer lists.  Any other symbolic argument takes
the generator's reduced result composed at that argument.  At the
generator both builds read each factor 1 + w q^e from one cached record,
and the result stays in integer tuples up to its reduction, so a sweep
over m pays little per call beyond its coefficients."""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from fractions import Fraction

from .padic import (
    DEFAULT_TERM_BUDGET,
    QBracketMonomial,
    SeriesParams,
    _abs_sum,
    _cesaro1,
    _distribution,
    _last_three,
    _prefix_sums,
    _ratios,
    _series_regime,
    _sum_table,
    _tri,
    check_degree_budget,
    check_shift_budget,
    check_term_budget,
)
from .qcore import (
    DomainError,
    Poly,
    QRat,
    Record,
    _coeff_divmod,
    _geometric_table,
    _int_mul,
    _kronecker_read,
    _scaled,
    _slot_size,
    falling,
    is_zero_scalar,
    poly_gcd,
    q as _qgen,
    q_power,
    q_sym,
    to_frac,
)


class QEulerSpec(Record):
    """Parameters: degree m, integer weight h, order k, integer shift x,
    and rational twist w (w = 1 recovers the untwisted family)."""

    __slots__ = ("m", "h", "k", "x", "w")

    def __init__(self, m: int, h: int, k: int = 1, x: int = 0, w: Fraction = Fraction(1)):
        if m < 0 or k < 1 or x < 0:
            raise DomainError("need m >= 0, k >= 1, x >= 0")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)

    def kernel(self) -> tuple[QEulerSpec, int]:
        """The q-Euler parameters and integer scale of this value: itself, 1."""
        return self, 1

    def integrand(self) -> QBracketMonomial:
        """The k-variable integrand whose fermionic level sums and real
        series approximate this closed form."""
        return QBracketMonomial(m=self.m, k=self.k, h=self.h, w=self.w, x=self.x)


def _normalize_q(qv):
    """The evaluation domain: QRat for symbolic q (omitted, a Poly or a
    QRat), the shared `q_sym` for the generator, otherwise an exact
    rational outside {0, 1, -1}."""
    if qv is None or (isinstance(qv, Poly) and qv.coeffs == _qgen.coeffs
                      and qv.var == _qgen.var):
        return q_sym
    if isinstance(qv, Poly):
        return QRat(qv)
    if isinstance(qv, QRat):
        return qv
    qf = to_frac(qv)
    if qf in (0, 1, -1):
        raise DomainError("exact mode needs q outside {0, 1, -1}")
    return qf


def _check_factors(m: int, h: int, k: int, vanishes) -> None:
    """Raise DomainError at the first factor 1 + w q^(h+j-l) of the closed
    form, in its (j, l) loop order, whose exponent e has `vanishes(e)`:
    row 0 from l = 0, then the one new exponent h + j (l = 0) of each
    later row."""
    for e in [*range(h, h - k, -1), *range(h + 1, h + m + 1)]:
        if vanishes(e):
            j = max(e - h, 0)
            raise DomainError(
                f"vanishing denominator factor 1 + w q^({e}) at j={j}, l={h + j - e}")


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def _totient(n: int) -> int:
    for p in _prime_factors(n):
        n -= n // p
    return n


@functools.lru_cache(maxsize=256)
def _cyclotomic(d: int) -> Poly:
    """The cyclotomic polynomial Phi_d: q^d - 1 divided by Phi_e for the
    proper divisors e of d (exact integer division by monic divisors)."""
    acc = Poly((-1,) + (0,) * (d - 1) + (1,))
    for e in _divisors(d)[:-1]:
        acc = acc.exact_div(_cyclotomic(e))
    return acc


_PHI1, _PHI2 = ("phi", 1), ("phi", 2)


#: 1 + w q^e = C q^(-shift) P for a rational constant C, where the integer
#: polynomial P of the given degree is the product of the known factors
#: named by `keys`, of the degrees `degrees`: ("phi", d) is Phi_d, ("w", e)
#: is b + a q^e for e > 0 and a + b q^|e| for e < 0, with w = a/b in lowest
#: terms (`_factor_base`).  A constant factor (w = 0 or e = 0) has no keys
#: and no shift.
_Factor = collections.namedtuple("_Factor", "shift keys degree degrees")


@functools.lru_cache(maxsize=512)
def _split_factor(a: int, b: int, e: int) -> _Factor:
    """The record of 1 + w q^e at w = a/b in lowest terms, with no
    polynomial in it.  It depends on the integers alone, so a sweep over m
    reads each factor's record once."""
    n = abs(e)
    if a == 0 or e == 0:
        return _Factor(0, (), 0, ())
    shift = n if e < 0 else 0
    if b == 1 and a in (1, -1):
        # 1 + q^n = prod_{d | 2n, d does not divide n} Phi_d; q^n - 1 =
        # prod_{d | n} Phi_d, and 1 - q^n is its negative
        ds = _divisors(n) if a == -1 else [d for d in _divisors(2 * n) if n % d]
        return _Factor(shift, tuple(("phi", d) for d in ds), n,
                       tuple(_totient(d) for d in ds))
    return _Factor(shift, (("w", e),), n, (n,))


@functools.lru_cache(maxsize=512)
def _factor_base(a: int, b: int, key) -> Poly:
    """The base polynomial of the known factor `key` at w = a/b, built
    only once the plan's degree is within its budget."""
    kind, e = key
    if kind == "phi":
        return _cyclotomic(e)
    lo, hi = (b, a) if e > 0 else (a, b)
    return Poly._from_coeffs((lo,) + (0,) * (abs(e) - 1) + (hi,))


def _unit_power(e: int, sign: int) -> Poly:
    """(q + sign)^e for sign = +-1, from the binomial row of e."""
    return Poly._from_coeffs(tuple([math.comb(e, i) * sign ** (e - i) for i in range(e + 1)]))


def _phi_remainder(cs, d: int) -> tuple:
    """The remainder of the int coefficients cs by Phi_d: the fold of cs
    modulo q^d - 1 (d slice sums) divided by the monic Phi_d."""
    return _coeff_divmod([sum(cs[i::d]) for i in range(min(d, len(cs)))],
                         _cyclotomic(d).coeffs)[1]


def _binomial_residues(cs, base: Poly) -> tuple:
    """Modulo `_MOD_PRIME` and padded to e terms, hi^T times the remainder
    of the int coefficients cs (or their residues) by lo + hi q^e, T the
    top chunk of e coefficients, so a nonzero residue proves a nonzero
    remainder: R = sum_t (-lo)^t hi^(T-t) C_t, whose weights are hi^T c^t
    with c = -lo/hi, or only (-lo)^T at t = T when the prime divides hi;
    one dot product per residue class mod e.  The only remainder by a
    twist binomial: where `_shares_factor` needs an exact one, it takes
    it from the one division loop."""
    ell, e, lo, hi = _MOD_PRIME, base.degree, base.coeffs[0], base.coeffs[-1]
    top = max(len(cs) - 1, 0) // e
    if hi % ell:
        c = -lo * pow(hi, -1, ell) % ell
        weights = _geometric_table(pow(hi, top, ell), c, top + 1, ell)
    else:
        weights = [0] * top + [pow(-lo, top, ell)]
    return tuple(sum(map(operator.mul, weights, cs[i::e])) % ell for i in range(e))


def _is_power(v: Fraction, p: int) -> bool:
    """v is a p-th power in Q."""
    if v < 0:
        return p % 2 == 1 and _is_power(-v, p)
    return all(_iroot(n, p) ** p == n for n in (v.numerator, v.denominator))


def _iroot(n: int, p: int) -> int:
    """floor(n^(1/p)) for n >= 0, by integer Newton steps from above."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // p)
    while True:
        y = ((p - 1) * x + n // x ** (p - 1)) // p
        if y >= x:
            return x
        x = y


@functools.lru_cache(maxsize=512)
def _may_split(lo: int, hi: int, e: int) -> bool:
    """Whether lo + hi q^e, that is q^e - c with c = -lo/hi, may factor over
    Q.  By Capelli's theorem it is irreducible unless c is a p-th power in
    Q for a prime p dividing e, or 4 divides e and c is in -4 Q^4 (as in
    q^4 + 4 = (q^2 + 2q + 2)(q^2 - 2q + 2))."""
    c = Fraction(-lo, hi)
    return (any(_is_power(c, p) for p in _prime_factors(e))
            or (e % 4 == 0 and c < 0 and _is_power(-c / 4, 4)))


#: the prime of the coprimality test: a safe prime 2p + 1 (p prime), so
#: every residue other than 0 and +-1 has order p or 2p and the prime
#: divides no Phi_d(a) of small d at an integer a, as 2^61 - 1 = Phi_61(2)
#: would divide the numerator at the root 2 of 4 - q^2
_MOD_PRIME = 2 ** 61 - 2373


def _coprime_mod(a: tuple, b: tuple) -> bool:
    """Whether the int coefficient tuples a and b are shown coprime over Q
    by Euclid over GF(ell), ell = `_MOD_PRIME`.  When ell does not divide
    a's leading coefficient, a common factor over Q keeps its degree
    modulo ell, so coprime modulo ell proves coprime; False proves
    nothing."""
    ell = _MOD_PRIME
    if a[-1] % ell == 0:
        return False
    a, b = [c % ell for c in a], [c % ell for c in b]
    while b and not b[-1]:
        b.pop()
    while b:
        inv = pow(b[-1], -1, ell)
        while len(a) >= len(b):
            f, shift = a[-1] * inv % ell, len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - f * c) % ell
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


#: X = 2^_POINT_BITS, the point of the integer-value test: small, so that
#: P(X) has 16 bits per degree and N(X) mod P(X) costs one short division
#: of N(X), not a long division by a value the size of N's
_POINT_BITS = 16


def _value_at_point(cs) -> int:
    """The value at q = X = 2^`_POINT_BITS` of the int coefficients cs, by
    pairwise packing: c_2i + c_(2i+1) X, then the same at X^2, one list
    per round, so each round's additions are linear in the value's size."""
    vals, bits = list(cs), _POINT_BITS
    while len(vals) > 1:
        if len(vals) % 2:
            vals.append(0)
        vals = [a + (b << bits) for a, b in zip(vals[::2], vals[1::2])]
        bits *= 2
    return vals[0] if vals else 0


@functools.lru_cache(maxsize=256)
def _phi_at_point(d: int) -> int:
    """Phi_d(X) at X = 2^`_POINT_BITS`, cached with Phi_d."""
    return _value_at_point(_cyclotomic(d).coeffs)


def _shares_factor(cs: tuple, key, base: Poly, value: int, residues) -> bool:
    """Whether the int coefficients cs share a nonconstant factor with the
    base P of a known factor, given cs's value N(X) at X = 2^`_POINT_BITS`
    (`_value_at_point`) and `residues`, a function that returns cs modulo
    `_MOD_PRIME` (built once for many bases).  Each step of the ladder
    settles what it can:

    1. N(X) mod P(X) != 0 proves that P does not divide cs (P is primitive,
       so by Gauss's lemma P | N gives P(X) | N(X)), so they share nothing
       when P is irreducible: every Phi_d, and a binomial that `_may_split`
       rejects.  P(X) = 0 (q - X at w = -X and e = -1, or X - q at
       w = -1/X and e = 1) settles nothing here;
    2. for Phi_d, its exact remainder (`_phi_remainder`) decides;
    3. a binomial's remainder modulo the prime (`_binomial_residues`): a
       nonzero residue proves that an irreducible binomial shares nothing;
    4. for a binomial that may split, those residues and the binomial
       coprime modulo the prime (`_coprime_mod`) prove them coprime;
    5. otherwise the exact remainder, from the one division loop
       (`qcore._coeff_divmod`): zero shares P, and a nonzero one shares a
       factor only with a splitting binomial, by one GCD of the two."""
    phi = key[0] == "phi"
    splits = not phi and _may_split(base.coeffs[0], base.coeffs[-1], base.degree)
    if not splits:
        at = _phi_at_point(key[1]) if phi else \
            base.coeffs[0] + (base.coeffs[-1] << _POINT_BITS * base.degree)
        if at and value % at:
            return False
    if phi:
        return not any(_phi_remainder(cs, key[1]))
    rem = _binomial_residues(residues(), base)
    if any(rem) and (not splits or _coprime_mod(base.coeffs, rem)):
        return False
    rem = Poly(cs) % base
    return rem.is_zero or (splits and poly_gcd(base, rem).degree > 0)


def _root_one_quotient(cs, v: int) -> tuple:
    """The exact quotient of the coefficients cs by (q - 1)^v: v synthetic
    divisions by q - 1, each one pass of suffix sums (quotient coefficient
    i is c_(i+1) + ... + c_n, the remainder the sum of all).  Raises
    ArithmeticError on a nonzero remainder, as `Poly.exact_div` does."""
    for _ in range(v):
        sums = list(itertools.accumulate(reversed(cs), initial=0))
        if sums[-1]:
            raise ArithmeticError(f"{Poly(cs)} is not divisible by q - 1")
        cs = tuple(sums[-2:0:-1])
    return cs


#: The closed form over its known denominator.  Row j of the sum divides by
#: the factors of the exponents h + j - l, l < k; `powers` gives each known
#: factor's exponent in the rows' common denominator D, and `cancel` the
#: powers of Phi_2 = 1 + q that [2]_q^k cancels from it.  `degree` bounds
#: the degree of the result: it is the larger degree of the unreduced
#: numerator and denominator.
_KnownDenominator = collections.namedtuple("_KnownDenominator", "factors powers cancel degree")


def _twist_degree(m: int, h: int, k: int, x: int, w_zero: bool) -> int:
    """The plan's `degree` at |w| != 1 in O(1).  Each exponent e != 0 gives
    one twist binomial of degree |e| and power 1, so D has degree S =
    sum |e| and nothing cancels; row j is x j less its window's positive
    exponents, T(h + j) - T(h + j - k).  The rows are concave, each step
    x - clamp(h + j + 1, 0, k), so the largest is at j = m when x > k and
    else where h + j + 1 reaches x.  At w = 0 there is no factor at all."""
    if w_zero:
        return max(m, k + x * m)
    s = _abs_sum(h - k + 1, h + m)
    j = m if x > k else min(max(x - h - 1, 0), m)
    return max(m + s, k + s + x * j - _tri(h + j) + _tri(h + j - k))


def _known_denominator(m: int, h: int, k: int, x: int, w: Fraction,
                       budget: int | None = None) -> _KnownDenominator:
    """Plan the symbolic closed form in O(m + k) steps without a product or
    a polynomial.  With a budget, refuse (`check_degree_budget`) when the result's
    degree bound exceeds it; lower bounds reject a huge request before
    the loops, and at |w| != 1 the exact degree (`_twist_degree`) does,
    so these stay within the budget's reach.  At |w| != 1 every factor
    key is a twist binomial of one exponent, so each has power 1 and
    nothing cancels: only |w| = 1 needs the window loop over the rows."""
    a, b = w.numerator, w.denominator
    lo = h - k + 1
    if budget is not None:
        # (1 - q)^m stays in the denominator; with w = 0 the numerator
        # keeps (1 + q)^k; otherwise row 0 divides by factors of total
        # degree sum_l |h - l|, of which [2]_q^k cancels at most k
        low = max(m, k) if a == 0 else m + _abs_sum(lo, h) - k
        check_degree_budget(low, budget, at_least=True)
    if abs(a) != b:  # |w| != 1: the exact degree, before any record
        degree = _twist_degree(m, h, k, x, a == 0)
        if budget is not None:
            check_degree_budget(degree, budget)
        factors = {e: _split_factor(a, b, e) for e in range(lo, h + m + 1)}
        powers = {key: 1 for f in factors.values() for key in f.keys}
        return _KnownDenominator(factors, powers, 0, degree)
    if a == -b:  # w = -1: 1 - q^e vanishes at e = 0
        _check_factors(m, h, k, lambda e: e == 0)
    if budget is not None:
        # a record costs O(sqrt |e|) here, so a large m stops first: D
        # holds Phi_|e| (w = -1) or Phi_2|e| (w = 1) for each |e| in the
        # range, of degree phi >= sqrt(|e| / 2)
        top = max(-lo, h + m)
        bottom = 1 if lo <= 0 <= h + m else min(abs(lo), abs(h + m))
        check_degree_budget(m - k + sum(math.isqrt(n // 2) for n in range(bottom, top + 1)),
                            budget, at_least=True)
    factors = {e: _split_factor(a, b, e) for e in range(lo, h + m + 1)}
    # slide a window of k exponents: at e >= h it holds row j = e - h; the
    # windows before are prefixes of row 0, so their counts raise no power
    live: dict = {}
    powers: dict = {}
    degrees: dict = {}
    shift = degree = 0
    rows = []
    for e in range(lo, h + m + 1):
        new = factors[e]
        for key in new.keys:
            live[key] = live.get(key, 0) + 1
        shift += new.shift
        degree += new.degree
        if e - k >= lo:
            old = factors[e - k]
            for key in old.keys:
                live[key] -= 1
            shift -= old.shift
            degree -= old.degree
        for key, d in zip(new.keys, new.degrees):
            if live[key] > powers.get(key, 0):
                powers[key] = live[key]
                degrees[key] = d
        if e >= h:
            rows.append(x * (e - h) + shift - degree)
    cancel = min(k, powers.get(_PHI2, 0))
    den_degree = sum(degrees[key] * e for key, e in powers.items())
    total = max(m + den_degree - cancel, k - cancel + den_degree + max(rows))
    if budget is not None:
        check_degree_budget(total, budget)
    return _KnownDenominator(factors, powers, cancel, total)


def check_symbolic_budget(spec: QEulerSpec, budget: int) -> None:
    """Raise BudgetExceeded when the symbolic closed form of `spec` may
    have a degree above `budget`, before any polynomial work."""
    _known_denominator(spec.m, spec.h, spec.k, spec.x, to_frac(spec.w), budget)


def _euler_sum_symbolic(m: int, h: int, k: int, x: int, w: Fraction, scale: int) -> QRat:
    """The closed form at the symbolic generator, over its known
    denominator: one integer numerator N and one rational content C, so
    that the value is C (1 + q)^(k - t) N / (Phi_1^m D / Phi_2^t).

    The numerator's build depends on |w| alone, and each build also
    returns the integer product D of its known factors.  For |w| != 1
    every known factor has power 1 in D, so D is the product of the
    closed form's twist binomials, and the exact route's accumulation at
    q = 2^B gives N with no division and D from its running product
    (`_packed_numerator`).  For |w| = 1 the cyclotomic factors repeat
    across windows, so that product is far larger than D; D is the
    product of the cyclotomic powers, and each row divides it by its
    window's binomials (`_row_numerator`).

    The known factors are pairwise coprime.  Distinct Phi_d are, and a
    common root of two twist factors, or of a twist factor and some Phi_d,
    would need |q| = 1, which forces |w| = 1 (q^e = -1/w and q^e' = -1/w
    give q^(e-e') = 1; q^e = -1/w and q^e' = -w with e, e' > 0 put |q|^e
    and |q|^e' on opposite sides of 1; the roots of Phi_d have |q| = 1).
    So gcd(N, denominator) is the product of gcd(N, P^e) over the factor
    powers P^e, and dividing N and D by each GCD leaves a denominator
    coprime to the numerator: the pair is reduced without a second
    full-degree GCD.  Most factors share nothing with N, and one integer
    remainder shows it (`_shares_factor`): N's value N(X) at X = 2^16,
    packed once per closed form (`_value_at_point`), modulo P(X).  Every
    base P is primitive, so by Gauss's lemma P | N forces P(X) | N(X), and
    a nonzero remainder rules out a factor shared with a P known to be
    irreducible: every Phi_d, and each twist binomial that `_may_split`
    rejects.  A zero remainder, a binomial that may split, or P(X) = 0
    goes down the ladder: Phi_d's exact remainder; a twist binomial's
    remainder modulo a prime on N's residues (built at most once per
    closed form, when first needed), Euclid modulo the prime for one that
    may split, then the exact remainder (`qcore._coeff_divmod`) and a
    GCD only where those find nothing.  So `poly_gcd` runs
    only where a shared factor exists, such as (q - 1)^m.  Its GCD
    (q - 1)^v leaves N by v synthetic divisions, each one pass of suffix
    sums (`_root_one_quotient`), and another factor's GCD by an exact
    division.  The denominator is then D / Phi_2^t (t passes of
    `_unit_quotient` by q + 1) / (the GCDs other than Phi_1's) times
    Phi_1^(m - v).

    At the small degrees of a `table` row or a `verify` grid the cost is
    per object, not per coefficient, so the route keeps its fixed cost
    low: each factor's record (its known factors and their degrees) is
    cached by the twist's integers and the exponent (`_split_factor`), as
    are the factors' base polynomials (`_factor_base`, built only after
    the plan) and the splitting rule (`_may_split`); both
    builds return int tuples, and the |w| = 1 product tree for D runs on
    them; the factor tests share N's value at X and its residues;
    every power of q + 1 or q - 1 is read from a binomial row
    (`_unit_power`); and the content and the monic denominator take one
    pass over the coefficients each (`qcore._scaled`)."""
    plan = _known_denominator(m, h, k, x, w)
    unit = w.denominator == 1 and w.numerator in (1, -1)
    if unit:
        ints, n0, den = _row_numerator(m, h, k, x, w.numerator, plan)
    else:
        ints, n0, den = _packed_numerator(m, h, k, x, w, plan)
    if not ints or not scale:
        return QRat._from_reduced(Poly(), Poly((1,)))
    # the factor tests read the integer numerator before any division:
    # dividing out a shared factor keeps it coprime to every other factor;
    # they share its value at X and, built on first use, its residues
    # modulo the prime
    value = _value_at_point(ints)
    residues = functools.cache(lambda: tuple([c % _MOD_PRIME for c in ints]))
    num = Poly._from_coeffs(ints) * _unit_power(k - plan.cancel, 1)
    for _ in range(plan.cancel):
        den = _unit_quotient(den, 1, 1)
    den = Poly._from_coeffs(tuple(den))
    powers = dict(plan.powers)
    powers[_PHI1] = powers.get(_PHI1, 0) + m
    if plan.cancel:
        powers[_PHI2] -= plan.cancel
    phi1 = m  # the power of q - 1 that D lacks, less what its GCD removes
    for key, e in powers.items():
        base = _factor_base(w.numerator, w.denominator, key)
        if not (e > 0 and _shares_factor(ints, key, base, value, residues)):
            continue
        if key == _PHI1:
            v = poly_gcd(num, _unit_power(e, -1)).degree
            num = Poly(_root_one_quotient(num.coeffs, v))
            phi1 -= v
        else:
            g = poly_gcd(num, base ** e)
            num = num.exact_div(g)
            den = den.exact_div(g)
    # phi1 >= 0: D carries Phi_1 only at w = -1, where no valid window
    # holds e = 0, so each row's window has k nonzero exponents of one
    # sign; with g_k(x) = 1/(x(x-1)...(x-k+1)), Delta g_k = -k g_(k+1)(x+1),
    # so the sum's leading Laurent coefficient at q = 1 is
    # +-k(k+1)...(k+m-1) g_(k+m)(h+m) != 0, the pole order is m + k and the
    # GCD removes v = 0; at every other w, v <= m
    if phi1:
        den = den * _unit_power(phi1, -1)
    lead = den.coeffs[-1]
    # reduced by the per-factor GCDs above (pairwise-coprime factors)
    return QRat._from_reduced(
        Poly._from_coeffs(_scaled(num.coeffs, Fraction(scale * (-1) ** m, n0 * lead))),
        den.monic())


def _strip(cs) -> tuple:
    """The int coefficients cs without their trailing zeros, as a tuple."""
    end = len(cs)
    while end and not cs[end - 1]:
        end -= 1
    return tuple(cs[:end])


def _row_numerator(m: int, h: int, k: int, x: int, sign: int,
                   plan: _KnownDenominator) -> tuple[tuple, int, tuple]:
    """(n_0 N, n_0, D) for w = sign = +-1, as int coefficient tuples, with
    N the sum over the common denominator D, the product of the cyclotomic
    powers, and n_0 = 2 when 1 + q^0 = 2 is a factor (w = 1), else 1.  Row
    j is D divided by its window's binomials q^|e| + w, the P of each
    factor 1 + w q^e = ±q^(-shift) P (minus for 1 - q^e, e > 0), each
    division one linear pass (`_unit_quotient`); the row is added into one
    int list at its q-shift times its integer coefficient.  A row whose
    window holds no e = 0 carries n_0."""
    # D by a balanced product tree over every factor's copies, on int tuples
    parts = [_factor_base(sign, 1, key).coeffs for key, e in plan.powers.items()
             for _ in range(e)]
    parts = parts or [(1,)]
    while len(parts) > 1:
        parts = [_int_mul(a, b) for a, b in zip(parts[::2], parts[1::2])] \
            + parts[len(parts) // 2 * 2:]
    common = parts[0]
    n0 = 2 if sign == 1 and h - k + 1 <= 0 <= h + m else 1
    num: list = []
    for j in range(m + 1):
        exps = range(h + j - k + 1, h + j + 1)
        coef = (-1) ** j * math.comb(m, j) * (1 if 0 in exps else n0)
        cof = common
        shift = x * j
        for e in exps:
            shift += plan.factors[e].shift
            if plan.factors[e].keys:
                cof = _unit_quotient(cof, abs(e), sign)
                if sign == -1 and e > 0:
                    coef = -coef
        end = shift + len(cof)
        num.extend([0] * (end - len(num)))
        num[shift:end] = [a + coef * c for a, c in zip(num[shift:end], cof)]
    return _strip(num), n0, common


def _unit_quotient(cs, n: int, sign: int) -> list:
    """The exact quotient of the int coefficients cs by q^n + sign, sign =
    +-1: the recurrence quo[i] = cs[i+n] - sign quo[i+n] from the top."""
    quo = list(cs[n:])
    if sign == 1:
        for i in range(len(quo) - n - 1, -1, -1):
            quo[i] -= quo[i + n]
    else:
        for i in range(len(quo) - n - 1, -1, -1):
            quo[i] += quo[i + n]
    return quo


class _PackedBinomial:
    """The integer lo + hi 2^bits, a factor lo + hi X^s at X = 2^B with
    bits = B s.  An integer times it is one shift and two products by
    small integers, linear in that integer's size."""

    __slots__ = ("lo", "hi", "bits")

    def __init__(self, lo: int, hi: int, bits: int):
        self.lo, self.hi, self.bits = lo, hi, bits

    def __rmul__(self, value: int) -> int:
        return value * self.lo + (value * self.hi << self.bits)


def _packed_numerator(m: int, h: int, k: int, x: int, w: Fraction,
                      plan: _KnownDenominator) -> tuple[tuple, int, tuple]:
    """(n_0 N, n_0, D) for |w| != 1, as int coefficient tuples, with N the
    sum over the common denominator D, the product of the twist binomials:
    `_accumulate` at q = X = 2^B (a = X, c = 1 in the exact route's terms),
    read back from B-bit slots.

    With w = u/v, the factor n_e is the P of `_split_factor`: v + u X^e
    for e > 0 and u + v X^|e| for e < 0; the constant n_0 is
    v (1 + w) = u + v, and with w = 0 every n_e is 1 and no factor
    carries a q-shift.  T_j = C(m,j) (-1)^j v^k X^(xj + s_j), s_j the
    shift of row j's window, is a `_PackedBinomial` with lo = 0.  The
    sum over prod_e n_e is then n_0 N when e = 0 lies in the range, and
    N otherwise.  That product, the running product below the last row's
    window times that window, is n_0 D, so D costs k more shift-and-scale
    products and one exact division by n_0.

    B = 8 * size comes from a proven bound: every coefficient of a
    polynomial is at most its l1 norm.  The sum's is at most
    sum_j C(m,j) v^k (|u| + v)^m, since each row takes m factors n_e of
    l1 norm at most |u| + v, and that of the m + k factors' product at
    most (|u| + v)^(m + k); the sum's degree is at most x m plus the sum
    of the factor degrees."""
    u, v = w.numerator, w.denominator
    size = _slot_size(max((v ** k * (abs(u) + v) ** m) << m, (abs(u) + v) ** (m + k)))
    bits = 8 * size
    nums = {e: (u + v if not f.keys else _PackedBinomial(v, u, bits * e) if e > 0
                else _PackedBinomial(u, v, -bits * e))
            for e, f in plan.factors.items()}
    terms = [_PackedBinomial(0, (-1) ** j * math.comb(m, j) * v ** k,
                             bits * (x * j + sum(plan.factors[e].shift
                                                 for e in range(h + j - k + 1, h + j + 1))))
             for j in range(m + 1)]
    acc, below = _accumulate(m, h, k, nums, terms)
    degree = sum(f.degree for f in plan.factors.values())
    n0 = u + v if h - k + 1 <= 0 <= h + m else 1
    for e in range(h + m - k + 1, h + m + 1):
        below *= nums[e]
    return (_strip(_kronecker_read(acc, x * m + degree + 1, size)), n0,
            _kronecker_read(below // n0, degree + 1, size))


def _accumulate(m: int, h: int, k: int, nums: dict, terms: list) -> tuple:
    """The closed form's numerator over prod_e n_e (e = h-k+1 .. h+m),
    where 1 + w q^e = n_e / d_e.  Row j's share is T_j times the n_e
    outside its window, so one pass accumulates
    A_j = A_(j-1) n_(h+j) + T_j P_j, where P_j is the running product of
    the n_e below row j's window.  The factors n_e = nums[e] and
    T_j = terms[j] are integers at a rational q and `_PackedBinomial`s at
    the generator, so the two routes differ only in how an integer is
    multiplied by a factor.  Returns (A_m, P_m)."""
    acc, below = 0, 1
    for j in range(m + 1):
        if j:
            below *= nums[h + j - k]
            acc *= nums[h + j]
        acc += below * terms[j]
    return acc, below


def _euler_sum(m: int, h: int, k: int, x: int, w, qv, scale: int = 1):
    """The one closed form, times an integer scale:
    scale [2]_q^k (1-q)^{-m} sum_j C(m,j) (-1)^j q^{xj} / prod_l (1 + w q^{h+j-l}).

    Two routes give it.  The integer accumulation (`_accumulate`) sums it
    at a rational q as one integer numerator over one denominator
    (`_euler_sum_exact`), and the known-denominator build gives the
    reduced rational function at the symbolic generator
    (`_euler_sum_symbolic`).  Any other symbolic argument v (q^2, 1/q, a
    constant, the generator in another variable) takes that result
    composed at v (`QRat.evaluate`), once the scan for a factor
    1 + w v^e that vanishes has passed, so a vanishing factor raises the
    same DomainError as at a rational q.  Composing the reduced result is
    total where the closed form has a removable singularity: at the
    constant 1 with m >= 1 it gives the q -> 1 limit (`QRat.at_one`)."""
    qv = _normalize_q(qv)
    w = to_frac(w)
    if isinstance(qv, Fraction):
        return _euler_sum_exact(m, h, k, x, w, qv, scale)
    if qv is q_sym or (qv == q_sym and qv.num.var == _qgen.var):
        return _euler_sum_symbolic(m, h, k, x, w, scale)
    _check_factors(m, h, k, lambda e: is_zero_scalar(w * q_power(qv, e) + 1))
    return _euler_sum_symbolic(m, h, k, x, w, scale).evaluate(qv)


def _euler_sum_exact(m: int, h: int, k: int, x: int, w: Fraction, qf: Fraction,
                     scale: int) -> Fraction:
    """The closed form at q = a/c in integers.  With w = u/v, each factor
    is 1 + w q^e = n_e / d_e: n_e = v c^e + u a^e, d_e = v c^e for e >= 0,
    and n_e = v a^|e| + u c^|e|, d_e = v a^|e| for e < 0.  Over the common
    denominator c^(xm) prod_e n_e (e = h-k+1 .. h+m), row j's numerator is
    T_j prod_{e outside its window} n_e, with
    T_j = C(m,j) (-1)^j a^(xj) c^(x(m-j)) prod_{window} d_e, summed by
    `_accumulate` in integer products; the prefactor
    [2]_q^k (1-q)^-m = (c+a)^k c^(m-k) / (c-a)^m joins A_m in one Fraction."""
    a, c = qf.numerator, qf.denominator
    u, v = w.numerator, w.denominator
    lo = h - k + 1
    nums, dens = {}, {}
    for e in range(lo, h + m + 1):
        d = v * c ** e if e >= 0 else v * a ** -e
        nums[e] = d + (u * a ** e if e >= 0 else u * c ** -e)
        dens[e] = d
    _check_factors(m, h, k, lambda e: nums[e] == 0)
    terms = [(-1) ** j * math.comb(m, j) * a ** (x * j) * c ** (x * (m - j))
             * math.prod(dens[e] for e in range(h + j - k + 1, h + j + 1))
             for j in range(m + 1)]
    acc, below = _accumulate(m, h, k, nums, terms)
    num = scale * (c + a) ** k * acc
    den = (c - a) ** m * below * math.prod(nums[e] for e in range(h + m - k + 1, h + m + 1))
    c_exp = m - k - x * m
    if c_exp >= 0:
        num *= c ** c_exp
    else:
        den *= c ** -c_exp
    return Fraction(num, den)


def qeuler_hk(spec: QEulerSpec, qv=None):
    """Closed form of the order-k q-Euler value E_m^{(h,k)}(x; w).

    Pass a Fraction q for an exact value, or omit q (or pass the symbolic
    generator) for the reduced rational function in q."""
    return _euler_sum(spec.m, spec.h, spec.k, spec.x, spec.w, qv)


def qeuler_twisted(n: int, w, qv=None):
    """Twisted q-Euler number:
    [2]_q (1-q)^{-n} sum_j C(n,j) (-1)^j / (1 + q^{j+1} w).

    Coincides with the order-1, weight-1 family at x = 0."""
    if n < 0:
        raise DomainError("need n >= 0")
    return _euler_sum(n, 1, 1, 0, w, qv)


def check_series_budget(M: int, x: int, k: int, term_budget: int) -> None:
    """Budget a Gaussian-weight series of M terms, order k and shift x:
    its M terms, then the q exponent x + k(M - 1).  The bracket table
    reaches only q^(x + M - 1); k(M - 1) stands for the top q exponent of
    the Gaussian-weight distribution, whose last weight C(k + M - 2, M - 1)_q
    adds (k - 1)(M - 1) to it and whose convolution does the work."""
    check_term_budget(M, 1, term_budget, "{}", M)
    check_shift_budget(x, k * (M - 1), term_budget)


def qeuler_hk_series(spec: QEulerSpec, qv, sp: SeriesParams,
                     term_budget: int = DEFAULT_TERM_BUDGET,
                     scale: int = 1) -> tuple[Fraction, Fraction]:
    """Series route for the weight h = k - 1 family:
    scale [2]_q^k sum_n C(k+n-1, n)_q (-w)^n [n+x]_q^m.

    Direct mode needs |w| < 1 and returns an exact geometric tail bound;
    |w| = 1 is the boundary case and needs cesaro1.  The integer `scale`
    (a q-Genocchi value's) multiplies value and bound.  `term_budget` is
    checked before anything else.  Returns (value, bound)."""
    check_series_budget(sp.M, spec.x, spec.k, term_budget)
    if spec.h != spec.k - 1:
        raise DomainError("the series expansion exists only for h = k - 1")
    qf = to_frac(qv)
    if not 0 < qf < 1:
        raise DomainError("series mode needs 0 < q < 1")
    f = spec.integrand()
    ratios = _ratios(f, qf)
    _series_regime(f, ratios, sp)
    a, c = qf.numerator, qf.denominator
    k, m = spec.k, spec.m
    num, den = scale * (c + a) ** k, c ** k  # scale [2]_q^k
    dist, E = _distribution(ratios, sp.M, size=sp.M)
    table = _sum_table(f, qf, sp.M)  # [n+x]_q^m as integers
    if sp.mode == "cesaro1":
        value, gap, D = _cesaro1(_prefix_sums(dist, E, table, _last_three(sp.M)))
        return Fraction(num * value, den * D), Fraction(num * gap, den * D)
    # the tail majorant (1 - q)^-m |w|^M / (1 - |w|) / (q; q)_(k-1), as
    # C(k+n-1, n)_q increases in n to 1/(q; q)_(k-1); with w = u/v, that is
    # c^m |u|^M c^T(k-1) / ((c - a)^m v^(M-1) (v - |u|) prod_{i<k} (c^i - a^i))
    w = to_frac(spec.w)
    u, v = abs(w.numerator), w.denominator
    tail_num = c ** (m + _tri(k - 1)) * u ** sp.M
    tail_den = ((c - a) ** m * v ** (sp.M - 1) * (v - u)
                * math.prod(c ** i - a ** i for i in range(1, k)))
    ((A, D),) = _prefix_sums(dist, E, table, [sp.M - 1])
    return Fraction(num * A, den * D), Fraction(num * tail_num, den * tail_den)


def _exp_table(qf: Fraction, x: int, t: Fraction, T: int,
               size: int) -> tuple[list[int], int, int]:
    """The table (G, R, C) of the truncated exponential
    e(s) = sum_{j<T} (t [s+x]_q)^j / j! = G[s] / (R^s C), for s < size.

    With t [s+x]_q = rho (1 - q^x q^s) and rho = t / (1 - q), e(s) is a
    polynomial in q^s: sum_{l<T} gamma_l q^(ls), where
    gamma_l = (-rho q^x)^l / l! sum_{i<T-l} rho^i / i!.  For q = a/c,
    t = tau/sigma and r = T - 1, the integers Gamma_l = C gamma_l with
    C = r! (sigma (c - a))^r c^(xr) give G[s] = sum_l Gamma_l z_l^s with
    z_l = a^l c^(r-l), and R = c^r: T geometric columns Gamma_l z_l^s
    (`qcore._geometric_table`), added up row by row by `map`."""
    if T == 0:
        return [0] * size, 1, 1
    r = T - 1
    a, c = qf.numerator, qf.denominator
    N, Dn = t.numerator * c, t.denominator * (c - a)  # rho = N / Dn
    fact = math.factorial
    # Gamma_l = (-N a^x)^l c^(x(r-l)) sum_i r!/(l! i!) N^i Dn^(r-l-i)
    terms = [(-N * a ** x) ** l * c ** (x * (r - l))
             * sum(fact(r) // (fact(l) * fact(i)) * N ** i * Dn ** (r - l - i)
                   for i in range(T - l))
             for l in range(T)]
    G, *columns = [_geometric_table(v, a ** l * c ** (r - l), size) for l, v in enumerate(terms)]
    for column in columns:
        G = list(map(operator.add, G, column))
    return G, c ** r, fact(r) * Dn ** r * c ** (x * r)


def gf_eval(kind: str, k: int, x: int, w, qv, t, sp: SeriesParams,
            t_terms: int = 8,
            term_budget: int = DEFAULT_TERM_BUDGET) -> tuple[Fraction, Fraction]:
    """Compare the two faces of a generating function at a rational point t.

    kind "fqk":  lhs = [2]_q^k sum_n C(k+n-1,n)_q (-w)^n e^{[n+x]_q t}
                 rhs = sum_{m<T} E-closed-form * t^m/m!
    kind "hqk"/"hqkw": the order-k Genocchi generating function, with its
                 t^k prefactor and vanishing low coefficients (x must be 0;
                 "hqk" forces w = 1).

    Each exponential is truncated to its first T = t_terms terms in t.  On
    the left, that truncation at every [n+x]_q is one integer table
    (`_exp_table`), and the boundary n-sum over it is one pass of
    `padic._prefix_sums` smoothed by `padic._cesaro1`; the prefactors join
    its integer numerator and denominator, so the left side is one Fraction.
    The right side sums its closed-form coefficients over one common
    denominator, so it is one Fraction too.  `term_budget` is checked
    first.  Returns (lhs, rhs)."""
    check_series_budget(sp.M, x, k, term_budget)
    if kind not in ("fqk", "hqk", "hqkw"):
        raise DomainError(f"unknown generating function kind {kind!r}")
    qf = to_frac(qv)
    if not 0 < qf < 1:
        raise DomainError("generating functions are evaluated for 0 < q < 1")
    t = to_frac(t)
    w = Fraction(1) if kind == "hqk" else to_frac(w)
    if kind in ("hqk", "hqkw"):
        if x != 0:
            raise DomainError("the Genocchi generating functions have no shift")
    if k < 1 or x < 0:
        raise DomainError("need k >= 1, x >= 0")
    f = QBracketMonomial(m=1, k=k, h=k - 1, w=w, x=x)
    ratios = _ratios(f, qf)
    _series_regime(f, ratios, SeriesParams(sp.M, "cesaro1"))
    if t_terms < 0:
        raise DomainError("need t_terms >= 0")

    dist, E = _distribution(ratios, sp.M, size=sp.M)
    core, _, D = _cesaro1(_prefix_sums(dist, E, _exp_table(qf, x, t, t_terms, sp.M),
                                       _last_three(sp.M)))
    # [2]_q^k, and t^k for the Genocchi kinds
    num, den = (qf.numerator + qf.denominator) ** k * core, qf.denominator ** k * D
    if kind == "fqk":
        lhs = Fraction(num, den)
        coeffs = [_euler_sum(m, k - 1, k, x, w, qf) for m in range(t_terms)]
    else:
        lhs = Fraction(num * t.numerator ** k, den * t.denominator ** k)
        coeffs = [0] * k + [_euler_sum(n - k, k - 1, k, 0, w, qf, falling(n, k))
                            for n in range(k, k + t_terms)]
    # sum_n c_n t^n / n! over one denominator: with t = tau / sigma, the
    # coefficients' common denominator L and the top index r, term n is
    # c_n L tau^n sigma^(r-n) r! / n! over L sigma^r r!
    tau, sigma = t.numerator, t.denominator
    r = max(len(coeffs) - 1, 0)
    L = math.lcm(*[c.denominator for c in coeffs])
    rhs = sum(c.numerator * (L // c.denominator) * tau ** n * sigma ** (r - n) * math.perm(r, r - n)
              for n, c in enumerate(coeffs))
    return lhs, Fraction(rhs, L * sigma ** r * math.factorial(r))

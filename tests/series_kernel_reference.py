"""The series layer built by plain loops in Fractions, the tests' reference
for its integer kernels and routes.

The exact tables by per-row loops, for the whole-list kernels of
`qeuler._exp_table`, `padic._build_distribution` and `padic._prefix_sums`:
each loop steps one row (or one term) at a time, so the kernels must
return the same integers however they group their products.

The series themselves term by term, for `qeuler_hk_series`, `gf_eval` and
`real_series`: the ratios, the regime rules, the tail majorants and the
cesaro1 average in Fraction arithmetic, one Fraction partial sum per term,
so the routes, which set up and average in integers, must return the same
Fractions and raise the same errors."""

import itertools
import math
from fractions import Fraction

from qgen.padic import ClassicalMonomial, DivergenceError, SeriesParams
from qgen.qcore import DomainError
from qgen.qeuler import QEulerSpec, qeuler_hk
from qgen.qgenocchi import QGenocchiSpec, qgenocchi_hk


def integer_form(bases):
    """(B, E) of Fraction ratios: integer numerators over E, the least
    common denominator, the form `padic._ratios` returns."""
    E = math.lcm(*(b.denominator for b in bases))
    return tuple(b.numerator * (E // b.denominator) for b in bases), E


def exp_table_rows(qf, x, t, T, size):
    """(G, R, C) of the truncated exponential, one row at a time: row s is
    sum_l Gamma_l z_l^s, and every term steps to row s + 1 by its z_l."""
    if T == 0:
        return [0] * size, 1, 1
    r = T - 1
    a, c = qf.numerator, qf.denominator
    N, Dn = t.numerator * c, t.denominator * (c - a)
    fact = math.factorial
    terms = [(-N * a ** x) ** l * c ** (x * (r - l))
             * sum(fact(r) // (fact(l) * fact(i)) * N ** i * Dn ** (r - l - i)
                   for i in range(T - l))
             for l in range(T)]
    steps = [a ** l * c ** (r - l) for l in range(T)]
    G = []
    for _ in range(size):
        G.append(sum(terms))
        terms = [v * z for v, z in zip(terms, steps)]
    return G, c ** r, fact(r) * Dn ** r * c ** (x * r)


def running_form(bases, L, modulus, size):
    """(D, E) of the k geometric tables (b^0, ..., b^(L-1)), every table
    convolved in by d'[s] = d[s] + b d'[s-1] - b^L d[s-L], starting from the
    unit table [1]."""
    if modulus:
        E = 1
        scaled = [b.numerator * pow(b.denominator, -1, modulus) % modulus for b in bases]
    else:
        scaled, E = integer_form(bases)
    dist = [1]
    for B in scaled:
        BL = pow(B, L, modulus)
        padded = dist + [0] * (L - 1)
        if size is not None:
            del padded[size:]
        cur = 0
        dist = []
        for s, d in enumerate(padded):
            cur = d + B * cur - (BL * padded[s - L] if s >= L else 0)
            if modulus:
                cur %= modulus
            dist.append(cur)
    return tuple(dist), E


def zip_horner(dist, E, table, reads):
    """A_n = sum_{s<=n} D[s] G[s] (E R)^(n-s) at each of the ascending
    `reads`, one (D[s], G[s]) pair per step; a table G of None is ones."""
    G, R, _ = table
    ER = E * R
    terms = zip(dist, itertools.repeat(1) if G is None else G)
    acc, done, accs = 0, 0, []
    for n in reads:
        for d, v in itertools.islice(terms, n + 1 - done):
            acc = acc * ER + d * v
        done = n + 1
        accs.append(acc)
    return accs


def cesaro1_average(partials):
    """The cesaro1 (value, gap) of Fraction partial sums: the average of the
    last two, and its distance from the average of the two before."""
    if len(partials) < 3:
        raise DomainError("cesaro1 needs at least 3 partial sums")
    t_last = (partials[-1] + partials[-2]) / 2
    t_prev = (partials[-2] + partials[-3]) / 2
    return t_last, abs(t_last - t_prev)


def fraction_ratios(f, qf):
    """The per-variable ratios as Fractions: -q w, or -w q^(h-j+1)."""
    w = Fraction(f.w)
    if isinstance(f, ClassicalMonomial):
        return [-qf * w]
    return [-w * qf ** (f.h - j + 1) for j in range(1, f.k + 1)]


def fraction_regime(f, bases, sp):
    """The regime rules on Fraction ratios, in their order, with their texts."""
    classical = isinstance(f, ClassicalMonomial)
    if any(abs(b) > 1 for b in bases):
        raise DivergenceError("effective ratio |q w| exceeds 1" if classical
                              else "an effective per-variable ratio exceeds 1")
    if 1 in bases:
        raise DivergenceError("positively divergent series (q w = -1)" if classical
                              else "positively divergent variable (w q^(h-j+1) = -1)")
    boundary = -1 in bases
    if classical and boundary and f.n >= 1:
        raise DivergenceError(
            "alternating series with polynomially growing terms; "
            "first-order averaging does not sum it")
    if sp.mode == "direct" and boundary:
        raise DivergenceError("boundary alternating series: use cesaro1")


def gauss_weight_terms(k, x, w, qf, M):
    """(C(k+n-1, n)_q (-w)^n, [n+x]_q) for n < M, each updated from the last."""
    c = Fraction(1)
    br = (1 - qf ** x) / (1 - qf)
    qpow = qf ** x
    for n in range(M):
        if n > 0:
            c *= -w * (1 - qf ** (k + n - 1)) / (1 - qf ** n)
            br += qpow
            qpow *= qf
        yield c, br


def truncated_exp(a, t, terms):
    """sum_{j < terms} (a t)^j / j!."""
    acc, pw = Fraction(0), Fraction(1)
    for j in range(terms):
        acc += pw / math.factorial(j)
        pw *= a * t
    return acc


def gauss_series(spec, qf, sp, scale=1):
    """`qeuler_hk_series` with one Fraction partial sum per term, and the
    tail majorant (1 - q)^-m |w|^M / (1 - |w|) / prod_{i<k} (1 - q^i)."""
    w = Fraction(spec.w)
    f = spec.integrand()
    bases = fraction_ratios(f, qf)
    fraction_regime(f, bases, sp)
    partials, s = [], Fraction(0)
    for c, br in gauss_weight_terms(spec.k, spec.x, w, qf, sp.M):
        s += c * br ** spec.m
        partials.append(s)
    pref = scale * (1 + qf) ** spec.k
    if sp.mode == "cesaro1":
        value, gap = cesaro1_average(partials)
        return pref * value, pref * gap
    aw = abs(w)
    # C(k+n-1, n)_q increases in n to 1/prod_{i<k} (1 - q^i)
    weight_bound = Fraction(1) / math.prod(1 - qf ** i for i in range(1, spec.k))
    tail = weight_bound * (1 - qf) ** -spec.m * aw ** sp.M / (1 - aw)
    return pref * s, pref * tail


def gf_series(kind, k, x, w, qf, t, sp, t_terms=8):
    """`gf_eval` with a truncated exponential per term and the right side
    from the public closed forms."""
    w = Fraction(1) if kind == "hqk" else w
    f = QEulerSpec(m=1, h=k - 1, k=k, x=x, w=w).integrand()
    fraction_regime(f, fraction_ratios(f, qf), SeriesParams(sp.M, "cesaro1"))
    partials, s = [], Fraction(0)
    for c, br in gauss_weight_terms(k, x, w, qf, sp.M):
        s += c * truncated_exp(br, t, t_terms)
        partials.append(s)
    core, _ = cesaro1_average(partials)
    pref = (1 + qf) ** k
    if kind == "fqk":
        lhs = pref * core
        coeffs = [qeuler_hk(QEulerSpec(m, k - 1, k, x, w), qf) for m in range(t_terms)]
    else:
        lhs = pref * t ** k * core
        coeffs = [0] * k + [qgenocchi_hk(QGenocchiSpec(n - k, k - 1, k, w), qf)
                            for n in range(k, k + t_terms)]
    return lhs, sum((c * t ** n / math.factorial(n) for n, c in enumerate(coeffs)), Fraction(0))


def box_sum(f, qf, L):
    """sum over x in [0, L)^k of f(x) prod_j (-q)^(x_j), term by term."""
    bases = fraction_ratios(f, qf)
    total = Fraction(0)
    for xs in itertools.product(range(L), repeat=len(bases)):
        s = sum(xs)
        if isinstance(f, ClassicalMonomial):
            g = Fraction(s + f.c) ** f.n
        else:
            n = s + f.x
            g = (Fraction(n) if qf == 1 else (1 - qf ** n) / (1 - qf)) ** f.m
        total += math.prod((b ** xj for b, xj in zip(bases, xs)), start=Fraction(1)) * g
    return total


def classical_tail(f, rho, M):
    """The majorant of sum_{y >= M} |y + c|^n rho^y: the terms before the
    first y0 >= max(M, 1 - c) at which rho ((y0 + 1 + c)/(y0 + c))^n < 1,
    then a geometric bound from y0 on."""
    if rho == 0:
        return Fraction(0)

    def r_hat(b):
        return rho * Fraction(b + 1, b) ** f.n

    b = max(M + f.c, 1)
    while r_hat(b) >= 1:
        b += 1
    y0 = b - f.c
    head = sum((Fraction(abs(y + f.c)) ** f.n * rho ** y for y in range(M, y0)), Fraction(0))
    return head + Fraction(b) ** f.n * rho ** y0 / (1 - r_hat(b))


def box_series(f, qf, sp):
    """`real_series` term by term: [2]_q^k times the box sums, cesaro1 over
    the last three boxes, or in direct mode the box of side M and the tail
    majorant sum_j r_j^M / prod_i (1 - r_i) (1 - q)^-m q^(m min(0, M + x))
    over the ratios' sizes r_j (for brackets), or `classical_tail`."""
    bases = fraction_ratios(f, qf)
    fraction_regime(f, bases, sp)
    pref = (1 + qf) ** len(bases)
    if sp.mode == "cesaro1":
        value, gap = cesaro1_average([box_sum(f, qf, L) for L in range(max(sp.M - 2, 1), sp.M + 1)])
        return pref * value, pref * gap
    sizes = [abs(b) for b in bases]
    if isinstance(f, ClassicalMonomial):
        tail = classical_tail(f, sizes[0], sp.M)
    else:
        tail = sum(r ** sp.M for r in sizes) / math.prod(1 - r for r in sizes)
        tail *= (1 - qf) ** -f.m * qf ** (f.m * min(0, sp.M + f.x))
    return pref * box_sum(f, qf, sp.M), pref * tail

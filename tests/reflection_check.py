"""Shared checks for the q-Euler reflection q -> 1/q, x -> k - x, w -> 1/w:
E(m, h, k, x, w; q) = c q^t E(m, h, k, k - x, 1/w; 1/q), read on the closed
form directly (test_qeuler) and through the q-Genocchi kernel
(test_qgenocchi)."""

from fractions import Fraction

from qgen.padic import BudgetExceeded
from qgen.qcore import DomainError, Poly, QRat


def typed_outcome(fn):
    """The result of fn, or the type of the error it raises."""
    try:
        return fn()
    except (DomainError, BudgetExceeded) as exc:
        return type(exc)


def reflection_factor(m: int, h: int, k: int, w: Fraction) -> tuple[Fraction, int]:
    """(c, t) of the reflection: c = (-1)^m w^(-k) and t = -m - s,
    s = k h - k(k + 1)/2."""
    return (-1) ** m / w ** k, -m - (k * h - k * (k + 1) // 2)


def reflected_equal(lhs: QRat, rhs: QRat, c: Fraction, t: int) -> bool:
    """lhs(q) = c q^t rhs(1/q) for reduced rational functions, without QRat
    arithmetic: rhs(1/q) = q^(deg D - deg N) rev(N)/rev(D) for rhs = N/D,
    rev the reversed coefficient list, so the relation is one
    cross-multiplication of polynomials."""
    def rev(p):
        return Poly(p.coeffs[::-1])
    t += rhs.den.degree - rhs.num.degree
    left = lhs.num * rev(rhs.den)
    right = rev(rhs.num) * lhs.den * c
    shift = Poly([0] * abs(t) + [1])
    return left == right * shift if t >= 0 else left * shift == right

"""The series layer's exact tables built by plain per-row loops: the tests'
reference for the whole-list kernels of `qeuler._exp_table`,
`padic._build_distribution` and `padic._horner`.  Each loop steps one
row (or one term) at a time, so the kernels must return the same integers
however they group their products."""

import itertools
import math


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
        E = math.lcm(*(b.denominator for b in bases))
        scaled = [b.numerator * (E // b.denominator) for b in bases]
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

"""Shared fixtures and the acceptance summary hook."""

import functools
import itertools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from heckespin.baxter import RationalMat, baxter_j, dressed_blocks
from heckespin.koornwinder import _ball, ball_vector, compute_P_detail, fixed_by_si
from heckespin.matchings import m_constants, pty
from heckespin.numerics import (
    InternalDefectError,
    LaurentPoly,
    ParamSet,
    generic_draws,
    l1_ball,
    rel_residual,
    stream,
    torus_point,
)
from heckespin.spinrep import _local_k, _local_kbar, _local_upsilon_p
from heckespin.tensorops import Product, evaluate, factor_product
from heckespin.transfer import theta_matrix
from heckespin.weyl import tau_word

_ACCEPTANCE: list = []


def sample_generic(seed: int, n: int, mcondition: int | None = None) -> ParamSet:
    """The first point of generic_draws(seed, n, mcondition), deterministic
    in its arguments: the package draws its points in commands._at_point
    alone, and tests take theirs here."""
    return next(generic_draws(seed, n, mcondition))


def record_acceptance(label: str, passed: bool):
    _ACCEPTANCE.append((label, passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for label, ok in _ACCEPTANCE:
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {label}")


class DictPoly:
    """Oracle: one Laurent polynomial in n_vars variables as a dict from
    integer exponent tuples to its nonzero complex coefficients, with the
    sum, scaling and pointwise value the term-by-term oracles below need."""

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars, terms=None):
        self.n_vars = int(n_vars)
        clean = {}
        for exp, c in (terms or {}).items():
            if len(exp) != self.n_vars:
                raise ValueError("exponent arity does not match n_vars")
            c = complex(c)
            if c != 0:
                clean[tuple(int(e) for e in exp)] = c
        self.terms = clean

    @classmethod
    def one(cls, n_vars):
        return cls(n_vars, {(0,) * n_vars: 1.0})

    @classmethod
    def monomial(cls, n_vars, exp, coeff=1.0):
        return cls(n_vars, {tuple(exp): coeff})

    def max_abs(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __add__(self, other):
        if self.n_vars != other.n_vars:
            raise InternalDefectError("arity mismatch")
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, 0j) + c
        return DictPoly(self.n_vars, terms)

    def __neg__(self):
        return DictPoly(self.n_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, z):
        z = complex(z)
        return DictPoly(self.n_vars, {e: z * c for e, c in self.terms.items()})

    def eval(self, point):
        return complex(to_table([self], self.n_vars)([tuple(point)])[0, 0])


def to_table(polys, n_vars):
    """The DictPolys as the rows of one LaurentPoly, over the union of their
    supports in order of first appearance."""
    if any(p.n_vars != n_vars for p in polys):
        raise InternalDefectError("arity mismatch")
    col = list(dict.fromkeys(e for p in polys for e in p.terms))
    coeffs = [[p.terms.get(e, 0) for e in col] for p in polys]
    return LaurentPoly(np.reshape(col, (len(col), n_vars)), coeffs)


def from_table(table):
    """The rows of a LaurentPoly as DictPolys, one per row."""
    exps = [tuple(e) for e in table.exps.tolist()]
    return [DictPoly(table.exps.shape[1], dict(zip(exps, row))) for row in table.coeffs]


def scale_row(table, row, z):
    """A copy of the LaurentPoly with its row-th polynomial times z."""
    coeffs = table.coeffs.copy()
    coeffs[row] *= z
    return LaurentPoly(table.exps, coeffs)


def laurent_mul(f, g):
    """Oracle: the product of two DictPolys, term by term."""
    if f.n_vars != g.n_vars:
        raise InternalDefectError("arity mismatch")
    terms = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, 0j) + c1 * c2
    return DictPoly(f.n_vars, terms)


def s_j(f, j, q):
    """Oracle: f o s_j, the substitution t_1 -> q/t_1 (j = 0), t_j <-> t_{j+1}
    (0 < j < n) or t_n -> 1/t_n (j = n)."""
    n = f.n_vars
    terms = {}
    for exp, c in f.terms.items():
        e = list(exp)
        if j == 0:
            e[0], c = -e[0], c * q ** e[0]
        elif j == n:
            e[-1] = -e[-1]
        else:
            e[j - 1], e[j] = e[j], e[j - 1]
        terms[tuple(e)] = terms.get(tuple(e), 0j) + c
    return DictPoly(n, terms)


def denominator(j, n, q):
    """Oracle: the reflection denominator of s_j, 1 - q t_1^-2 (j = 0),
    1 - t_j/t_{j+1} (0 < j < n) or 1 - t_n^2 (j = n), as a DictPoly."""
    e = [0] * n
    if j == 0:
        e[0], c = -2, -q
    elif j == n:
        e[-1], c = 2, -1.0
    else:
        e[j - 1], e[j], c = 1, -1, -1.0
    return DictPoly(n, {(0,) * n: 1.0, tuple(e): c})


def numerator_poly(j, params):
    """Oracle: N_j, the inverted-parameter numerator of c_j times the
    reflection denominator of s_j, as a DictPoly."""
    n = params.n
    e1, e2 = [0] * n, [0] * n
    if 0 < j < n:
        e2[j - 1], e2[j] = 1, -1
        return DictPoly(n, {(0,) * n: 1.0, tuple(e2): -1 / params.kappa**2})
    if j == 0:
        k0, u0 = params.kappa0, params.upsilon0
        e1[0], e2[0] = -1, -2
        c1, c2 = params.q_sqrt / k0 * (u0 - 1 / u0), -params.q / k0**2
    else:
        kn, un = params.kappan, params.upsilonn
        e1[-1], e2[-1] = 1, 2
        c1, c2 = (un - 1 / un) / kn, -1 / kn**2
    return DictPoly(n, {(0,) * n: 1.0, tuple(e1): c1, tuple(e2): c2})


def divided_difference(f, j, params):
    """Oracle: the exact quotient (f o s_j - f) / denominator(j, n, q),
    assembled monomial by monomial from geometric sums, never by pointwise
    division.  The quotient is multiplied back and compared against
    f o s_j - f; disagreement raises InternalDefectError."""
    n = f.n_vars
    if n != params.n:
        raise ValueError("polynomial arity does not match ParamSet rank")
    if not 0 <= j <= n:
        raise ValueError("reflection index out of range")
    q = params.q
    terms: dict = {}

    def add(exp, c):
        terms[exp] = terms.get(exp, 0j) + c

    for exp, c in f.terms.items():
        if j == 0:
            m = exp[0]
            # (u^m - 1)/(1 - u) with u = q/t_1^2; each u^l sends t_1^m to
            # q^l t_1^(m-2l)
            if m > 0:
                for l in range(m):
                    add((m - 2 * l,) + exp[1:], -c * q**l)
            elif m < 0:
                for l in range(m, 0):
                    add((m - 2 * l,) + exp[1:], c * q**l)
        elif j == n:
            m = exp[-1]
            # here the denominator is 1 - t_n^2 = -u^{-1}(1 - u) for
            # u = t_n^{-2}, which shifts the geometric sum by one step
            if m > 0:
                for l in range(1, m + 1):
                    add(exp[:-1] + (m - 2 * l,), c)
            elif m < 0:
                for l in range(m + 1, 1):
                    add(exp[:-1] + (m - 2 * l,), -c)
        else:
            a, b = j - 1, j
            d = exp[a] - exp[b]
            # (u^{-d} - 1)/(1 - u) with u = t_j/t_{j+1}
            if d < 0:
                for l in range(-d):
                    e = list(exp)
                    e[a] += l
                    e[b] -= l
                    add(tuple(e), -c)
            elif d > 0:
                for l in range(-d, 0):
                    e = list(exp)
                    e[a] += l
                    e[b] -= l
                    add(tuple(e), c)

    g = DictPoly(n, terms)
    lhs = laurent_mul(g, denominator(j, n, q))
    rhs = s_j(f, j, q) - f
    scale = max(lhs.max_abs(), rhs.max_abs(), 1.0)
    if (lhs - rhs).max_abs() > 1e-12 * scale:
        raise InternalDefectError(
            f"divided difference failed re-multiplication check at j={j}"
        )
    return g


def noumi_T_apply(j, f, params):
    """Oracle: the generator action T_j . f = kappa_j^{-1} f + kappa_j N_j
    DD_j(f) of koornwinder, on DictPolys."""
    kj = params.kappa_j(j)
    out = f.scale(1 / kj)
    dd = divided_difference(f, j, params)
    return out + laurent_mul(numerator_poly(j, params), dd).scale(kj)


def noumi_T_inv_apply(j, f, params):
    # quadratic relation in inverted parameters: T^{-1} = T - 1/kappa + kappa
    kj = params.kappa_j(j)
    return noumi_T_apply(j, f, params) + f.scale(kj - 1 / kj)


def noumi_Y_apply(i, f, params):
    """Oracle: the i-th commuting translation element through the basic
    action, letter by letter along tau_word."""
    n = params.n
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    out = f
    for k, a in reversed(list(enumerate(tau_word(i, n)))):
        step = noumi_T_inv_apply if k < i - 1 else noumi_T_apply
        out = step(a, out, params)
    return out


def _compose_signed(pu, su, pv, sv):
    """Signed permutation composition (u o v) in image convention.

    u maps e_j to su[pu[j]] e_{pu[j]}; signs are indexed by the target slot,
    so u o v carries the sign su[pu[i]] sv[i] into slot pu[i].
    """
    signs = [1] * len(pu)
    for i, k in enumerate(pu):
        signs[k] = su[k] * sv[i]
    return tuple(pu[j] for j in pv), tuple(signs)


@dataclass(frozen=True)
class WeylElem:
    """Oracle: one element u o tau(trans) of the affine Weyl group, for
    checking the words and integer points of heckespin.weyl; perm[j] is the
    0-based image of slot j, signs are indexed by the target slot, trans is
    the translation part."""

    perm: tuple
    signs: tuple
    trans: tuple

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, n: int) -> "WeylElem":
        return cls(tuple(range(n)), (1,) * n, (0,) * n)

    @classmethod
    def generator(cls, i: int, n: int) -> "WeylElem":
        """The simple reflection s_i, 0 <= i <= n."""
        if i == 0:
            signs = (-1,) + (1,) * (n - 1)
            return cls(tuple(range(n)), signs, (-1,) + (0,) * (n - 1))
        if i == n:
            return cls(tuple(range(n)), (1,) * (n - 1) + (-1,), (0,) * n)
        if 0 < i < n:
            perm = list(range(n))
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
            return cls(tuple(perm), (1,) * n, (0,) * n)
        raise ValueError(f"generator index {i} out of range for n={n}")

    def linear_apply(self, x):
        """The finite part acting linearly (translation ignored)."""
        out = [0] * self.n
        for j in range(self.n):
            out[self.perm[j]] = self.signs[self.perm[j]] * x[j]
        return tuple(out)

    def __mul__(self, other: "WeylElem") -> "WeylElem":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        # (u, a)(v, b) = (uv, v^{-1}(a) + b)
        perm, signs = _compose_signed(self.perm, self.signs, other.perm, other.signs)
        a = other.inverse_finite().linear_apply(self.trans)
        trans = tuple(x + y for x, y in zip(a, other.trans))
        return WeylElem(perm, signs, trans)

    def inverse_finite(self) -> "WeylElem":
        inv_perm = [0] * self.n
        for j in range(self.n):
            inv_perm[self.perm[j]] = j
        # signs of the inverse live on the source slots of the original
        inv_signs = tuple(self.signs[self.perm[i]] for i in range(self.n))
        return WeylElem(tuple(inv_perm), inv_signs, (0,) * self.n)

    @classmethod
    def from_word(cls, letters, n: int) -> "WeylElem":
        out = cls.identity(n)
        for a in letters:
            out = out * cls.generator(a, n)
        return out


def act_point(w: WeylElem, point, params):
    """Oracle: the q-deformed action of an element on (C*)^n.

    tau(mu) multiplies by q^mu, the finite part permutes coordinates and
    inverts those with negative sign.
    """
    q = params.q
    shifted = [q**m * t for m, t in zip(w.trans, point)]
    out = [0j] * w.n
    for j in range(w.n):
        i = w.perm[j]
        out[i] = shifted[j] if w.signs[i] == 1 else 1 / shifted[j]
    return tuple(out)


def bfs_levels(n, key):
    """Breadth-first closure of the identity under left multiplication by the
    generators s_1, ..., s_n of W_0 (a small-n oracle).

    Level k lists, in discovery order, the first element reached of each new
    class under ``key`` at distance k, as (element, word) with the word, k
    letters long, that spells it.  Keyed by (perm, signs) the classes are the
    elements of W_0, and level k holds those of length k.  Keyed by the
    image of (1, ..., 1), fixed exactly by S_n, the classes are the cosets
    w S_n, each first reached at its minimal representative.
    """
    start = WeylElem.identity(n)
    seen = {key(start)}
    levels = [[(start, ())]]
    while True:
        nxt = []
        for w, word in levels[-1]:
            for i in range(1, n + 1):
                v = WeylElem.generator(i, n) * w
                k = key(v)
                if k not in seen:
                    seen.add(k)
                    nxt.append((v, (i,) + word))
        if not nxt:
            return levels
        levels.append(nxt)


def finite_group(n):
    """All 2^n n! elements of W_0 as (WeylElem, word) by length, each word
    a reduced word of its element (a small-n oracle)."""
    levels = bfs_levels(n, key=lambda w: (w.perm, w.signs))
    return [pair for level in levels for pair in level]


@dataclass(frozen=True)
class Matching:
    """Oracle: a matching as its sorted tuple of pairs (a, b), a < b, on the
    sites 0..n+1, for checking the partner array of heckespin.matchings."""

    n: int
    pairs: tuple

    @classmethod
    def make(cls, n: int, pairs) -> "Matching":
        norm = tuple(sorted(tuple(sorted(p)) for p in pairs))
        m = cls(n, norm)
        m.validate()
        return m

    def validate(self):
        """ValueError unless the pairs are those of a matching: the ones
        from_signs builds from their sign string nu."""
        if Matching.from_signs(self.n, self.nu()) != self:
            raise ValueError(f"{self.pairs} is not a two-boundary non-crossing matching")

    def partner(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError("partner is defined for inner sites only")
        for a, b in self.pairs:
            if a == i:
                return b
            if b == i:
                return a
        raise ValueError(f"site {i} unmatched")

    def nu(self) -> tuple:
        """The sign string: -1 at a site whose partner (as partner finds it)
        lies to its left, else 1; ValueError at an unmatched site."""
        signs = {}
        for a, b in reversed(self.pairs):  # the first pair naming a site is written last
            signs[b], signs[a] = (-1 if a < b else 1), (-1 if b < a else 1)
        try:
            return tuple(signs[i] for i in range(1, self.n + 1))
        except KeyError as err:
            raise ValueError(f"site {err.args[0]} unmatched") from None

    def nu_index(self) -> int:
        idx = 0
        for a in self.nu():
            idx = 2 * idx + (0 if a > 0 else 1)
        return idx

    @classmethod
    def from_signs(cls, n: int, alpha) -> "Matching":
        """The unique matching with the given sign string: each '-' closes
        the nearest open '+', or else goes to site 0, and every '+' left
        open goes to site n+1.  The result is valid by construction."""
        alpha = tuple(alpha)
        if len(alpha) != n:
            raise ValueError("sign string length must be n")
        stack, pairs = [], []
        for i in range(1, n + 1):
            if alpha[i - 1] > 0:
                stack.append(i)
            elif stack:
                pairs.append((stack.pop(), i))
            else:
                pairs.append((0, i))
        pairs.extend((j, n + 1) for j in stack)
        return cls(n, tuple(sorted(pairs)))

    def drop_sites(self, *sites):
        """Pairs surviving after removing every pair touching the sites."""
        sites = set(sites)
        return tuple(p for p in self.pairs if not (p[0] in sites or p[1] in sites))


@functools.lru_cache(maxsize=None)
def enumerate_matchings(n: int) -> tuple:
    """Oracle: all 2^n matchings, ordered by their sign strings (+ before -)."""
    return tuple(
        Matching.from_signs(n, alpha)
        for alpha in itertools.product((1, -1), repeat=n)
    )


def _apply_generator(j: int, p: Matching, n: int):
    """Oracle: e_j on the matching p, by re-pairing its pairs: (image
    matching, name of its weight)."""
    if j == 0:
        m1 = p.partner(1)
        if m1 == 0:
            return p, "delta0"
        if m1 == n + 1:
            return Matching.make(n, p.drop_sites(1) + ((0, 1),)), "beta0"
        return Matching.make(n, p.drop_sites(1) + ((0, 1), (0, m1))), "one"
    if j == n:
        mn = p.partner(n)
        if mn == n + 1:
            return p, "deltan"
        if mn == 0:
            w = "beta1" if pty(n) else "beta0"
            return Matching.make(n, p.drop_sites(n) + ((n, n + 1),)), w
        return Matching.make(n, p.drop_sites(n) + ((n, n + 1), (mn, n + 1))), "one"
    if not 1 <= j < n:
        raise ValueError("generator index out of range")
    mi, mi1 = p.partner(j), p.partner(j + 1)
    if mi == j + 1:
        return p, "delta"
    base = p.drop_sites(j, j + 1) + ((j, j + 1),)
    if mi == 0 and mi1 == 0:
        return Matching.make(n, base), "delta0" if pty(j - 1) else "one"
    if mi == n + 1 and mi1 == n + 1:
        return Matching.make(n, base), "deltan" if pty(n + 1 - j) else "one"
    if mi == 0 and mi1 == n + 1:
        return Matching.make(n, base), "beta1" if pty(j) else "beta0"
    return Matching.make(n, base + (tuple(sorted((mi, mi1))),)), "one"


def generator_table_by_rules(n: int) -> dict:
    """Oracle: j -> (row index of each column's image under e_j, weight
    names), one _apply_generator call per matching."""
    table = {}
    for j in range(n + 1):
        moves = [_apply_generator(j, p, n) for p in enumerate_matchings(n)]
        table[j] = (np.array([m.nu_index() for m, _w in moves]), tuple(w for _m, w in moves))
    return table


def psi_by_columns(params, limit: bool = False):
    """Oracle: the intertwiner Psi column by column over the oracle's
    matchings, each column the tensor product of its arcs' vectors in
    sorted-pair order (see heckespin.matchings.intertwiner_Psi)."""
    n = params.n
    k = params.kappa
    M = None if limit else m_constants(params)
    psi = {0: params.psi0, n: params.psin}

    def turned(j: int, h: int) -> complex:
        if limit:
            return 0j
        return psi[j] * (-params.kappa_j(j)) ** (1 - 2 * h) * (-k) ** (h - 1)

    def weight(j: int, h: int) -> complex:
        return 1.0 + 0j if limit else M[(j, h)]

    inner = np.array([[0, 1], [0 if limit else 1 / -k, 0]], dtype=complex)
    mat = np.zeros((2**n, 2**n), dtype=complex)
    for col, p in enumerate(enumerate_matchings(n)):
        vec, legs = np.ones((), dtype=complex), []
        for a, b in p.pairs:
            if a == 0:
                arc = weight(0, pty(b)) * np.array([turned(0, pty(b)), 1])
                legs.append(b)
            elif b == n + 1:
                arc = weight(n, pty(a)) * np.array([1, turned(n, pty(n + 1 - a))])
                legs.append(a)
            else:
                arc = inner
                legs += [a, b]
            vec = np.multiply.outer(vec, arc)
        mat[:, col] = vec.transpose(np.argsort(legs)).reshape(-1)
    return mat


def validate_by_rules(p):
    """Reference: the matching rules written out one by one.  ValueError
    unless every pair (a, b) has 0 <= a < b <= n+1 and is not (0, n+1),
    every inner site 1..n is matched exactly once and no two arcs cross."""
    n = p.n
    seen_inner = {}
    for a, b in p.pairs:
        if not (0 <= a < b <= n + 1):
            raise ValueError(f"bad pair ({a},{b})")
        if (a, b) == (0, n + 1):
            raise ValueError("the two boundaries may not be paired")
        for s in (a, b):
            if 1 <= s <= n:
                seen_inner[s] = seen_inner.get(s, 0) + 1
    if any(c != 1 for c in seen_inner.values()) or len(seen_inner) != n:
        raise ValueError("every inner site must be matched exactly once")
    ps = p.pairs
    for x in range(len(ps)):
        a, b = ps[x]
        for y in range(x + 1, len(ps)):
            c, d = ps[y]
            if a < c < b < d or c < a < d < b:
                raise ValueError(f"arcs ({a},{b}) and ({c},{d}) cross")


def boundary_arc_counts(p):
    """The per-parity counters of arcs into each boundary of a matching."""
    L = {(0, 0): 0, (0, 1): 0, (p.n, 0): 0, (p.n, 1): 0}
    for a, b in p.pairs:
        if a == 0:
            L[(0, pty(b))] += 1
        elif b == p.n + 1:
            L[(p.n, pty(a))] += 1
    return L


def _kron_embed(op, legs, m):
    """embed(op on legs) built from np.kron and an explicit basis permutation:
    P moves the listed legs to the front in order, so the embedding is
    P^T (op x Id) P."""
    order = [l - 1 for l in legs] + [a for a in range(m) if a + 1 not in legs]
    perm = np.zeros((2**m, 2**m))
    for b in range(2**m):
        bits = [(b >> (m - 1 - a)) & 1 for a in range(m)]
        perm[sum(bits[order[i]] << (m - 1 - i) for i in range(m)), b] = 1
    return perm.T @ np.kron(op, np.eye(2 ** (m - len(legs)))) @ perm


def explicit_rkk(p):
    """Oracle: hand-written closed forms of the dressed spin blocks as
    RationalMats, r (4x4, so that r P is the middle block), kbar (left
    boundary, 2x2) and k (right boundary, 2x2)."""
    k, k0, kn = p.kappa, p.kappa0, p.kappan
    u0, un, psi0, psin = p.upsilon0, p.upsilonn, p.psi0, p.psin
    r0 = np.array(
        [[1, 0, 0, 0], [0, k, 1 - k**2, 0], [0, 0, k, 0], [0, 0, 0, 1]],
        dtype=complex,
    )
    r1 = np.array(
        [[-(k**2), 0, 0, 0], [0, -k, 0, 0], [0, 1 - k**2, -k, 0], [0, 0, 0, -(k**2)]],
        dtype=complex,
    )
    kb0 = k0 * np.array([[0, psi0], [1 / psi0, 1 / k0 - k0]], dtype=complex)
    kb1 = k0 * (1 / u0 - u0) * np.eye(2, dtype=complex)
    kb2 = k0 * np.array([[1 / k0 - k0, -psi0], [-1 / psi0, 0]], dtype=complex)
    kk0 = kn * np.array([[1 / kn - kn, 1 / psin], [psin, 0]], dtype=complex)
    kk1 = kn * (1 / un - un) * np.eye(2, dtype=complex)
    kk2 = kn * np.array([[0, -1 / psin], [-psin, 1 / kn - kn]], dtype=complex)
    return SimpleNamespace(
        r=RationalMat([r0, r1], [1.0, -(k**2)]),
        kbar=RationalMat([kb0, kb1, kb2], [1.0, k0 * (1 / u0 - u0), -(k0**2)]),
        k=RationalMat([kk0, kk1, kk2], [1.0, kn * (1 / un - un), -(kn**2)]),
    )


def dense_hecke_relations(mats, params):
    """Oracle: the defining-relation battery on dense square matrices
    {T_j}, every row multiplied out on the full space."""
    n = params.n
    mats = {j: np.array(mats[j], dtype=complex) for j in range(n + 1)}
    eye = np.eye(mats[0].shape[0], dtype=complex)
    out = {}
    for j in range(n + 1):
        kj = params.kappa_j(j)
        prod = (mats[j] - kj * eye) @ (mats[j] + eye / kj)
        big = np.abs(mats[j]).max()
        scale = max((big + abs(kj)) * (big + 1 / abs(kj)), 1.0)
        out[f"quadratic T{j}"] = rel_residual(prod, np.zeros_like(prod), scale=scale)

    def row(lhs, rhs):
        return rel_residual(np.linalg.multi_dot([eye, *(mats[j] for j in lhs), eye]),
                            np.linalg.multi_dot([eye, *(mats[j] for j in rhs), eye]))

    if n >= 2:
        out["braid T0 T1 fourfold"] = row([0, 1, 0, 1], [1, 0, 1, 0])
        out["braid Tn-1 Tn fourfold"] = row([n - 1, n, n - 1, n], [n, n - 1, n, n - 1])
    for i in range(1, n - 1):
        out[f"braid T{i} T{i + 1} threefold"] = row([i, i + 1, i], [i + 1, i, i + 1])
    for i in range(n + 1):
        for j in range(i + 2, n + 1):
            out[f"commute T{i} T{j}"] = row([i, j], [j, i])
    return out


def factor_loop_T(params, x, t, deriv=False, cols=None):
    """Oracle: T(x; t) (and dT/dx) as the closed double row multiplied out
    on the auxiliary leg 1 and the chain legs 2..n+1, one local factor at a
    time, then traced over the auxiliary leg; with ``cols`` only those
    columns of T, from the two columns of the double space that the trace
    pairs.  The closure theta K_0(kappa^2 x) theta leads and R walks adjacent
    legs.  With ``deriv`` set, dT/dx is the sum over positions of the same
    product with that one factor replaced by its x-derivative."""
    n, dim = params.n, 2**params.n
    kbar, R, k = dressed_blocks(params)
    th, k2 = theta_matrix(params), params.kappa**2

    def local(f, arg, slope, legs, dress=lambda a: a):
        return dress(f(arg)), dress(slope * f.deriv(arg)) if deriv else None, legs

    row = [local(kbar, k2 * x, k2, [1], lambda a: th @ a @ th)]
    row += [local(R, x / t[j - 1], 1 / t[j - 1], [j, j + 1]) for j in range(1, n + 1)]
    row.append(local(k, x, 1, [n + 1]))
    row += [local(R, x * t[j - 1], t[j - 1], [j, j + 1]) for j in range(n, 0, -1)]
    cols = range(dim) if cols is None else cols
    aux = np.zeros((2 * dim, 2 * len(cols)), dtype=complex)
    for c, col in enumerate(cols):
        aux[col, c] = aux[dim + col, len(cols) + c] = 1

    def traced(swap):
        a = factor_product([(d if pos == swap else v, legs)
                            for pos, (v, d, legs) in enumerate(row)], n + 1, aux)
        return a[:dim, : len(cols)] + a[dim:, len(cols) :]

    val = traced(None)
    return (val, sum(traced(k) for k in range(len(row)))) if deriv else val


def residuals(rows: dict) -> dict:
    """Check name -> residual, for a battery whose rows are numbers or
    tensorops.Product records: each row as the report reads it."""
    return {key: evaluate(value) for key, value in rows.items()}


class Residuals(dict):
    """Check name -> the largest residual recorded under that name; a NaN,
    once recorded, stays, so that its check fails.  The per-sample oracles
    fold their samples' rows with it."""

    def add(self, key: str, value: float) -> None:
        old = self.get(key, 0.0)
        self[key] = value if value > old or value != value else old


def ybe_per_sample(params, samples=20, seed=1):
    """Oracle: the identity battery of baxter.check_ybe_re one sample at a
    time, at scalar spectral parameters, each (block, argument) evaluated
    once within a sample; every row keeps its largest residual over the
    samples."""
    n = params.n
    rng = stream(seed)
    out = Residuals()
    bad = params.replace(upsilon0=params.upsilon0 * 1.01)
    names = [(0, "K0"), (n, "Kn")] + [(i, f"R{i}") for i in range(1, n)]
    blocks, memo = dressed_blocks(params), {}

    def B(j, arg):
        kind = 0 if j == 0 else 2 if j == n else 1
        if (kind, arg) not in memo:
            memo[kind, arg] = blocks[kind](arg)
        return memo[kind, arg], [1] if kind == 0 else [n] if kind == 2 else [j, j + 1]

    def same(key, lhs, rhs):
        out.add(key, evaluate(Product(lhs, rhs)))

    for _ in range(samples):
        x, y = torus_point(rng, 2, (0.7, 1.4))
        memo.clear()
        K0x, K0y, Knx, Kny = B(0, x), B(0, y), B(n, x), B(n, y)
        left = [B(1, y / x), K0y, B(1, x * y), K0x]
        same("reflection at the left boundary", [K0x, B(1, x * y), K0y, B(1, y / x)], left)
        same(
            "reflection at the right boundary",
            [Kny, B(n - 1, x * y), Knx, B(n - 1, x / y)],
            [B(n - 1, x / y), Knx, B(n - 1, x * y), Kny],
        )
        for i in range(1, n - 1):
            same(
                f"yang-baxter braid R{i} R{i + 1}",
                [B(i, x), B(i + 1, x * y), B(i, y)],
                [B(i + 1, y), B(i, x * y), B(i + 1, x)],
            )
        for j, name in names:
            same(f"unitarity {name}", [B(j, x), B(j, 1 / x)], [])
        for i in range(2, n):
            same(f"far commutation K0 R{i}", [K0x, B(i, y)], [B(i, y), K0x])
        for i in range(1, n - 2):
            same(f"far commutation Kn R{i}", [Knx, B(i, y)], [B(i, y), Knx])
        for i in range(1, n):
            for j in range(i + 2, n):
                same(f"far commutation R{i} R{j}", [B(i, x), B(j, y)], [B(j, y), B(i, x)])
        same("far commutation K0 Kn", [K0x, Knx], [Knx, K0x])
        bad_lhs = [baxter_j(bad, 0, x), B(1, x * y), K0y, B(1, y / x)]
        same("negative control perturbed reflection", bad_lhs, left)
    t_hat = [_local_kbar(params)] + [_local_upsilon_p(params)] * (n - 1) + [_local_k(params)]
    for j, name in names:
        kj, eye = params.kappa_j(j), np.eye(len(t_hat[j]))
        out.add(f"regularity at x=1 {name}", rel_residual(baxter_j(params, j, 1.0)[0], eye))
        out.add(
            f"degeneration at x=0 {name}",
            rel_residual(baxter_j(params, j, 0.0)[0], kj * (t_hat[j] - (kj - 1 / kj) * eye)),
        )
    return out


def letter_factor(params, a, t):
    """Oracle: C_{s_a}(t) as (block, legs), the dressed generator of letter a
    at sqrt(q)/t_1 for a = 0, t_n for a = n, t_a/t_{a+1} otherwise."""
    if a == 0:
        return baxter_j(params, 0, params.q_sqrt / t[0])
    if a == params.n:
        return baxter_j(params, a, t[-1])
    return baxter_j(params, a, t[a - 1] / t[a])


def transport_factors(params, i, t):
    """Oracle: the closed form of the transport along the i-th translation
    as (block, legs) factors, left to right, written out from the torus
    point instead of run along tau_word: descending middle factors
    R_j(t_j/t_i) for j = i-1..1, the left boundary factor at sqrt(q)/t_i,
    ascending middle factors at q/(t_j t_i) for j = 1..i-1 then at
    q/(t_i t_{j+1}) for j = i..n-1, the right boundary factor at q/t_i, and
    descending middle factors at q t_{j+1}/t_i for j = n-1..i.  At
    params.replace(q_sqrt=1) it is the stationary transport."""
    n, q, ti = params.n, params.q, t[i - 1]
    B = functools.partial(baxter_j, params)
    return (
        [B(j, t[j - 1] / ti) for j in range(i - 1, 0, -1)]
        + [B(0, params.q_sqrt / ti)]
        + [B(j, q / (t[j - 1] * ti)) for j in range(1, i)]
        + [B(j, q / (ti * t[j])) for j in range(i, n)]
        + [B(n, q / ti)]
        + [B(j, q * t[j] / ti) for j in range(n - 1, i - 1, -1)]
    )


def qkz_per_sample(sol, samples=20, seed=8):
    """Oracle: qkz.verify_solution one point at a time, at scalar
    coordinates, with the closed-form transports and letter factors in place
    of the cocycle, at the first ``samples`` draws of stream(seed)."""
    params = sol.params
    n = params.n
    table = sol.components
    rng = stream(seed)
    q = params.q

    def sample():
        t = torus_point(rng, n, (0.75, 1.35))
        shifted = [t[:i] + (t[i] / q,) + t[i + 1 :] for i in range(n)]
        reflected = [act_point(WeylElem.generator(j, n), t, params) for j in range(n + 1)]
        vals = table([t, *shifted, *reflected])
        ft = vals[:, 0]
        scale = max(1e-300, float(np.abs(ft).max()))

        def residual(factors, col):
            lhs = factor_product(factors, n, vals[:, col : col + 1])[:, 0]
            return float(np.abs(lhs - ft).max()) / scale

        rows = {f"transport equation i={i}": residual(transport_factors(params, i, t), i)
                for i in range(1, n + 1)}
        for j in range(n + 1):
            rows[f"invariance under s_{j}"] = residual([letter_factor(params, j, t)], n + 1 + j)
        return rows

    out = Residuals()
    for _ in range(samples):
        for key, value in sample().items():
            out.add(key, value)
    return out


def by_degree(labels):
    """labels by l1 degree, lowest first, in their given order within a
    degree: the order in which the one-entry ball cache of koornwinder
    builds each degree's ball once."""
    return sorted(labels, key=lambda lam: sum(map(abs, lam)))


def koornwinder_per_label(params, radius=3):
    """Oracle: the label loop of the polynomial suite, one compute_P_detail
    per label of degree at most radius, a degree at a time, with each
    residual recomputed from the polynomial's ball vector by one
    matrix-vector product per Y_i and per T_i.  Returns the per-label
    (joint, |lead - 1|, [stabilizer_i]) and the four suite values: the worst
    joint residual, the worst monic deviation, the worst stabilizer residual
    at fixed labels and the least at moving ones."""
    n = params.n
    labels, worst = {}, {"joint": 0.0, "monic": 0.0, "fixed": 0.0, "separation": float("inf")}
    for lam in by_degree(l1_ball(n, radius)):
        det = compute_P_detail(lam, params)
        _basis, index, mats, gens, _eig = _ball(params, sum(abs(v) for v in lam))
        vec = ball_vector(det.poly, index)
        scale = max(float(np.abs(vec).max()), 1.0)
        joint = max(float(np.abs(mats[i] @ vec - vec / g).max())
                    for i, g in enumerate(det.gamma, start=1)) / scale
        stab = [float(np.abs(gens[i] @ vec - vec / params.kappa_j(i)).max()) / scale
                for i in range(1, n + 1)]
        monic = abs(from_table(det.poly)[0].terms.get(lam, 0.0) - 1.0)
        labels[lam] = (joint, monic, stab)
        worst["joint"] = max(worst["joint"], joint)
        worst["monic"] = max(worst["monic"], monic)
        for i, r in enumerate(stab, start=1):
            if fixed_by_si(i, lam):
                worst["fixed"] = max(worst["fixed"], r)
            else:
                worst["separation"] = min(worst["separation"], r)
    return labels, worst


def _eigen_residual(poly, index, pairs):
    """max over (M, c) of |M v - c v| / max(|v|, 1), v the vector of poly on
    a full l1 ball, so that a term outside the span shows."""
    vec = ball_vector(poly, index)
    scale = max(float(np.abs(vec).max()), 1.0)
    return max(float(np.abs(m @ vec - c * vec).max()) for m, c in pairs) / scale


def joint_residual(poly, det, params):
    """Reference: the relative residual of Y_i poly = poly / gamma_i, i =
    1..n, on the full degree ball of det.lam, for det.gamma the spectral
    vector of det.lam (a koornwinder.PolynomialResult)."""
    _basis, index, mats, _gens, _eig = _ball(params, sum(abs(v) for v in det.lam))
    return _eigen_residual(poly, index, [(mats[i], 1 / g) for i, g in enumerate(det.gamma, start=1)])


def stabilizer_eigen_residual(i, poly, params):
    """Reference: the relative residual of T_i poly = kappa_i^{-1} poly on
    the full degree ball of poly."""
    _basis, index, _mats, gens, _eig = _ball(params, poly.l1_degree())
    return _eigen_residual(poly, index, [(gens[i], 1 / params.kappa_j(i))])


@pytest.fixture(scope="session")
def dense_embed():
    """The dense-embedding oracle for local operators on (C^2)^(x m)."""
    return _kron_embed


@pytest.fixture
def cold_ball():
    """An empty koornwinder._ball cache before and after the test, so that
    no ball built under a monkeypatch outlives it."""
    _ball.cache_clear()
    yield
    _ball.cache_clear()


@pytest.fixture
def params2():
    return sample_generic(seed=1, n=2)


@pytest.fixture
def params3():
    return sample_generic(seed=1, n=3)


@pytest.fixture
def rng():
    return stream(7)

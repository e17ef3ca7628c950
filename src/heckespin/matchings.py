"""Two-boundary non-crossing perfect matchings and the matchmaker action.

Sites are 0, 1, ..., n, n+1; the inner sites 1..n are each matched exactly
once, the boundary sites 0 and n+1 may carry any number of arcs (or none),
the pair {0, n+1} is forbidden, and arcs never cross.  There are exactly 2^n
such matchings; the sign string

    nu(p)_i = '-'  iff  the partner of i lies to its left

is a bijection onto {+,-}^n and fixes the basis order used everywhere here
(+ sorts before -, so the index of p is the binary number with - as 1,
aligning with the spin basis where v_+ is bit 0).

The matchmaker operators e_j re-pair sites (j with j+1, or a boundary with
its neighbour) with multiplicative weights delta_j for closed loops and
beta_0/beta_1 for arcs swallowed between the two boundaries.  Each matching
goes to exactly one matching, so e_j is a monomial (index, weight) operator;
the indices come from one enumeration per n and only the weights depend on
the parameters.  The intertwiner Psi into the spin module sums over the
orientations of each matching; their weights factor over the arcs, so each
column is a tensor product of one vector per arc.

>>> [m.nu() for m in enumerate_matchings(2)]
[(1, 1), (1, -1), (-1, 1), (-1, -1)]
>>> Matching.from_signs(2, (1, -1)).pairs
((1, 2),)
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .numerics import ParamSet, nonvanishing
from .spinrep import TLParams, boundary_norm
from .tensorops import Monomial


@dataclass(frozen=True)
class Matching:
    """pairs: sorted tuple of (a, b) with a < b, sites in 0..n+1."""

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
        return tuple(
            -1 if self.partner(i) < i else 1 for i in range(1, self.n + 1)
        )

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
    """All 2^n matchings, ordered by their sign strings (+ before -)."""
    return tuple(
        Matching.from_signs(n, alpha)
        for alpha in itertools.product((1, -1), repeat=n)
    )


def pty(i: int) -> int:
    return i % 2


def _apply_generator(j: int, p: Matching, n: int):
    """e_j on the matching p: (image matching, name of its weight)."""
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


@functools.lru_cache(maxsize=None)
def _generator_table(n: int) -> dict:
    """j -> (row index of each column's image under e_j, weight names),
    from one enumeration of the matchings of n."""
    table = {}
    for j in range(n + 1):
        moves = [_apply_generator(j, p, n) for p in enumerate_matchings(n)]
        index = np.array([m.nu_index() for m, _w in moves])
        index.flags.writeable = False  # shared by every caller of the cache
        table[j] = (index, tuple(w for _m, w in moves))
    return table


def matchmaker_matrix(j: int, tl: TLParams, beta0, beta1, n: int) -> Monomial:
    """omega(e_j) in the sign-string basis order, as a monomial operator:
    each matching goes to one matching times one weight."""
    index, names = _generator_table(n)[j]
    value = {"one": 1.0, "delta0": tl.delta0, "delta": tl.delta, "deltan": tl.deltan,
             "beta0": beta0, "beta1": beta1}
    return Monomial(index, np.array([value[w] for w in names], dtype=complex))


def matchmaker_betas(params: ParamSet):
    """The (beta_0, beta_1) split used throughout: beta_0 = 1, so beta_1 is
    the constraint value of beta_0 * beta_1 for equivalence with the spin
    module; its numerator alternates with the parity of n."""
    p = params
    k, k0, kn = p.kappa, p.kappa0, p.kappan
    ps = p.psi0 * p.psin
    den = boundary_norm(p, 0) * boundary_norm(p, p.n)
    if p.n % 2 == 1:
        num = (1 + k0 / kn * ps) * (1 + kn / k0 * ps)
    else:
        num = (1 - k0 * kn / k * ps) * (1 - k * ps / (k0 * kn))
    return 1.0 + 0j, num / (ps * den)


def m_constants(params: ParamSet) -> dict:
    """The boundary-arc weights M_{j,h}, gauge-fixed by M_{0,0} = 1.

    They satisfy the two product relations
        M_{j,0} M_{j,1} = 1/(psi_j (kappa/kappa_j + kappa_j/kappa)),
        M_{0,0} M_{n,1} = beta0 / f_n   (f_n the n-parity factor),
    which pin every value once the gauge is chosen, with beta0 = 1 as in
    matchmaker_betas.
    """
    p = params
    k, k0, kn = p.kappa, p.kappa0, p.kappan
    ps = p.psi0 * p.psin
    if p.n % 2 == 1:
        fn = nonvanishing((1, k0 / kn * ps), p, "1 + kappa0/kappan psi0 psin")
    else:
        fn = nonvanishing((1, -(k0 * kn / k * ps)), p, "1 - kappa0 kappan/kappa psi0 psin")
    M = {(0, 0): 1.0 + 0j}
    M[(0, 1)] = 1 / (p.psi0 * boundary_norm(p, 0)) / M[(0, 0)]
    M[(p.n, 1)] = 1 / fn / M[(0, 0)]
    M[(p.n, 0)] = 1 / (p.psin * boundary_norm(p, p.n)) / M[(p.n, 1)]
    return M


def intertwiner_Psi(params: ParamSet, limit: bool = False):
    """The equivalence from the matching module to the spin module.

    Columns follow the sign-string order of enumerate_matchings; rows are the
    spin basis.  Each orientation of a matching reaches one spin index and is
    weighted by a product over its arcs, so a column is the tensor product of
    one vector per arc, placed on that arc's sites.  An arc drawn left to
    right puts + on its left end and - on its right end; turned around, it
    carries (-kappa)^-1 (inner arc) or psi_j (-kappa_j)^(1-2h) (-kappa)^(h-1)
    (boundary j, h the parity of the distance to it), and every boundary arc
    carries its weight M_{j,h} (m_constants).  With limit=True the weights
    are evaluated at the degenerate point psi0 = psin = 1/kappa = 0 (and M
    drops), where only the drawn orientation of each matching survives.

    >>> from heckespin.numerics import sample_generic
    >>> p = sample_generic(seed=1, n=2)
    >>> bool(np.allclose(intertwiner_Psi(p)[:, 1], [0, 1, -1 / p.kappa, 0]))
    True
    >>> bool(np.array_equal(intertwiner_Psi(p, limit=True), np.eye(4)))
    True
    """
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

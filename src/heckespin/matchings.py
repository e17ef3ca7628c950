"""Two-boundary non-crossing perfect matchings and the matchmaker action.

Sites are 0, 1, ..., n, n+1; the inner sites 1..n are each matched exactly
once, the boundary sites 0 and n+1 may carry any number of arcs (or none),
the pair {0, n+1} is forbidden, and arcs never cross.  There are exactly 2^n
such matchings, and the sign string

    nu(p)_i = '-'  iff  the partner of i lies to its left

is a bijection onto {+,-}^n: each '-' closes the nearest open '+', or else
goes to site 0, and every '+' left open goes to site n+1 (a ballot sequence;
Stanley, Enumerative Combinatorics vol. 2, ex. 6.19).  So a matching is held
as its index, the binary number of its sign string with - as 1 and site 1 as
the leading bit (+ sorts before -, aligning with the spin basis where v_+ is
bit 0), and everything else is read off one integer array, partners(n), whose
row k holds the partner of each site of the matching of index k.

The matchmaker operators e_j re-pair sites (j with j+1, or a boundary with
its neighbour) with multiplicative weights delta_j for closed loops and
beta_0/beta_1 for arcs swallowed between the two boundaries.  Each matching
goes to exactly one matching, so e_j is a monomial (index, weight) operator;
the indices come from the partner array once per n, for all 2^n matchings at
once, and only the weights depend on the parameters.  The intertwiner Psi
into the spin module sums over the orientations of each matching; their
weights factor over the arcs, so each column is a tensor product of one
vector per arc.

>>> partners(2)[:, 1:].tolist()  # the partners of sites 1 and 2 in ++, +-, -+, --
[[3, 3], [2, 1], [0, 3], [0, 0]]
"""

from __future__ import annotations

import functools

import numpy as np

from .numerics import ParamSet, nonvanishing
from .spinrep import TLParams, boundary_norm
from .tensorops import Monomial


@functools.lru_cache(maxsize=None)
def partners(n: int) -> np.ndarray:
    """All 2^n matchings as one read-only integer array: entry [k, i] is the
    partner of site i (1 <= i <= n) in the matching whose sign string has
    index k; column 0 only pads, so that column i is site i.  Each row is one
    pass over its sites with a stack of open '+' sites above site 0: a '-'
    takes the top as its partner (and pops it, unless it is site 0), and a
    '+' is pushed, its partner n+1 until a '-' closes it.  The rows are
    built in plain Python: a numpy pass over all of them at once touched
    integer loops no other matchmaker step needs, and lifted the peak RSS of
    verify matchmaker --n 6 by 0.1-0.2 MB."""
    out = []
    for k in range(2**n):
        row, stack = [n + 1] * (n + 1), [0]
        for i in range(1, n + 1):
            if k >> (n - i) & 1:
                row[i] = stack[-1]
                if stack[-1]:
                    row[stack.pop()] = i
            else:
                stack.append(i)
        out.append(row)
    out = np.array(out)
    out.flags.writeable = False  # shared by every caller of the cache
    return out


def pty(i: int) -> int:
    return i % 2


# the weight codes of _generator_table: positions in matchmaker_matrix's values
ONE, DELTA0, DELTA, DELTAN, BETA0, BETA1 = range(6)


@functools.lru_cache(maxsize=None)
def _generator_table(n: int) -> dict:
    """j -> (row index of each column's image under e_j, weight codes), read
    off the partner array p for all columns at once.  Sites 0 and n+1 sort
    below and above every inner site, and a weight is ONE unless named.

    e_0 sets site 1 to '-', weighted DELTA0 if p(1) = 0 and BETA0 if
    p(1) = n+1.  e_n sets site n to '+', weighted DELTAN if p(n) = n+1 and
    BETA1 or BETA0 by the parity of n if p(n) = 0.  An inner e_j with
    p(j) = j+1 is the identity, weighted DELTA.  Otherwise it sets j to '+'
    and j+1 to '-', and the former partners lo < hi of j and j+1 become a
    pair, so an inner lo turns '+' and an inner hi '-'; by parity, the weight
    is DELTA0 when both are 0, DELTAN when both are n+1, and BETA1 or BETA0
    when they are (0, n+1)."""
    p = partners(n)
    k = np.arange(2**n)
    bit = np.zeros(n + 2, dtype=int)  # each inner site's bit of the index
    bit[1:-1] = 1 << np.arange(n - 1, -1, -1)
    table = {
        0: (k | bit[1], np.select([p[:, 1] == 0, p[:, 1] == n + 1], [DELTA0, BETA0], ONE)),
        n: (k & ~bit[n], np.select([p[:, n] == n + 1, p[:, n] == 0], [DELTAN, (BETA0, BETA1)[pty(n)]], ONE)),
    }
    for j in range(1, n):
        lo, hi = np.minimum(p[:, j], p[:, j + 1]), np.maximum(p[:, j], p[:, j + 1])
        index = k & ~bit[j] & ~bit[lo] | bit[j + 1] | bit[hi]
        weight = np.select(
            [p[:, j] == j + 1, hi == 0, lo == n + 1, (lo == 0) & (hi == n + 1)],
            [DELTA, (ONE, DELTA0)[pty(j - 1)], (ONE, DELTAN)[pty(n + 1 - j)], (BETA0, BETA1)[pty(j)]], ONE)
        table[j] = (index, weight)
    for index, _weight in table.values():
        index.flags.writeable = False  # shared by every caller of the cache
    return table


def matchmaker_matrix(j: int, tl: TLParams, beta0, beta1, n: int) -> Monomial:
    """omega(e_j) in the sign-string basis order, as a monomial operator:
    each matching goes to one matching times one weight."""
    index, weight = _generator_table(n)[j]
    values = np.array([1.0, tl.delta0, tl.delta, tl.deltan, beta0, beta1], dtype=complex)
    return Monomial(index, values[weight])


def _parity_terms(p: ParamSet):
    """(x, y, name): beta_1's numerator is (1 + x)(1 + y); f_n = 1 + x, named name."""
    k, k0, kn, ps = p.kappa, p.kappa0, p.kappan, p.psi0 * p.psin
    if p.n % 2 == 1:
        return k0 / kn * ps, kn / k0 * ps, "1 + kappa0/kappan psi0 psin"
    return -(k0 * kn / k * ps), -(k * ps / (k0 * kn)), "1 - kappa0 kappan/kappa psi0 psin"


def matchmaker_betas(params: ParamSet):
    """The (beta_0, beta_1) split used throughout: beta_0 = 1, so beta_1 is
    the constraint value of beta_0 * beta_1 for equivalence with the spin
    module; its numerator alternates with the parity of n (_parity_terms)."""
    p = params
    x, y, _ = _parity_terms(p)
    den = boundary_norm(p, 0) * boundary_norm(p, p.n)
    return 1.0 + 0j, (1 + x) * (1 + y) / (p.psi0 * p.psin * den)


def m_constants(params: ParamSet) -> dict:
    """The boundary-arc weights M_{j,h}, gauge-fixed by M_{0,0} = 1.

    They satisfy the two product relations
        M_{j,0} M_{j,1} = 1/(psi_j (kappa/kappa_j + kappa_j/kappa)),
        M_{0,0} M_{n,1} = beta0 / f_n   (f_n the n-parity factor),
    which pin every value once the gauge is chosen, with beta0 = 1 as in
    matchmaker_betas.
    """
    p = params
    x, _, name = _parity_terms(p)
    fn = nonvanishing((1, x), p, name)
    M = {(0, 0): 1.0 + 0j}
    M[(0, 1)] = 1 / (p.psi0 * boundary_norm(p, 0)) / M[(0, 0)]
    M[(p.n, 1)] = 1 / fn / M[(0, 0)]
    M[(p.n, 0)] = 1 / (p.psin * boundary_norm(p, p.n)) / M[(p.n, 1)]
    return M


def intertwiner_Psi(params: ParamSet, limit: bool = False):
    """The equivalence from the matching module to the spin module.

    Column k is the matching of index k (partners); rows are the spin
    basis.  Each orientation of a matching reaches one spin index and is
    weighted by a product over its arcs, so a column is the tensor product of
    one vector per arc, placed on that arc's sites.  An arc drawn left to
    right puts + on its left end and - on its right end; turned around, it
    carries (-kappa)^-1 (inner arc) or psi_j (-kappa_j)^(1-2h) (-kappa)^(h-1)
    (boundary j, h the parity of the distance to it), and every boundary arc
    carries its weight M_{j,h} (m_constants).  With limit=True the weights
    are evaluated at the degenerate point psi0 = psin = 1/kappa = 0 (and M
    drops), where only the drawn orientation of each matching survives, so
    the map is the identity.

    >>> from heckespin.numerics import generic_draws
    >>> p = next(generic_draws(1, 2))
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
    for col, row in enumerate(partners(n).tolist()):
        vec, legs = np.ones((), dtype=complex), []
        # the arcs in sorted-pair order, which fixes the product's rounding
        for a, b in sorted({(min(i, m), max(i, m)) for i, m in enumerate(row[1:], 1)}):
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

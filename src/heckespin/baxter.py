"""Spectral-parameter dressing of the generator images and the cocycle,
the one routine behind every translation transport.

Every dressed generator is one local block on the legs of its generator
image, built once per ParamSet from the local blocks That_j of the spin
representation (spinrep: Kbar on leg 1, Upsilon o P on legs (i, i+1), K on
leg n) by Baxterization, with That_j^{-1} = That_j - (kappa_j - 1/kappa_j)
from the quadratic relation:

    K_j(x) = kappa_j (That_j^{-1} + (1/u_j - u_j) x - x^2 That_j)
             / (1 + kappa_j (1/u_j - u_j) x - kappa_j^2 x^2)       j = 0, n
    R_i(x) = kappa (That_i^{-1} - x That_i) / (1 - kappa^2 x)      0 < i < n

with u_j = upsilon_j.  They satisfy the reflection and Yang-Baxter
identities, are unitary in the sense K(x) K(1/x) = Id, equal the identity at
x = 1, and degenerate to kappa_j T_j^{-1} at x = 0.  The blocks are
matrix-polynomial quotients (RationalMat), so derivatives in x are exact, and
they keep the scalar type of the parameters and of x (complex, mpmath or
fractions alike), or take a whole array of x at once (one block per point);
the double-row transfer matrix uses the same three blocks.

A product of dressed generators is a list of (block, legs) factors run
through tensorops.factor_product; no factor is embedded into a dense 2^n
matrix.  The cocycle C(t) along a word takes one factor per letter, each
evaluated at the running image of the torus point (cocycle_factors).  Every
transport is this cocycle along a translation word: the difference
equations downstream (qkz), the commuting-transport row of the suite and
the stationary comparison with the transfer matrix (transfer) all run
through it.
"""

from __future__ import annotations

import functools

import numpy as np

from . import GenericityError, InternalDefectError, check_identity_rank
from .numerics import _POLE_TOL, ParamSet, nonvanishing, rel_residual, torus_point
from .spinrep import _eye, _local_k, _local_kbar, _local_upsilon_p
from .tensorops import Product
from .weyl import act_letter


def _horner(coeffs, x):
    """sum_k coeffs[k] x^k by Horner's rule, for array or scalar coefficients
    and an x of any type that broadcasts against them; an mpmath x gives
    mpmath values (object arrays for array coefficients)."""
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


class RationalMat:
    """Matrix polynomial over a scalar polynomial, with exact x-derivative.

    x is one spectral parameter of any scalar type, or a 1-D array of them,
    which gives a (len(x), r, r) stack; an unbatched call is the same code
    without the leading axis.  The values keep the scalar type of the
    coefficients and of x: complex arrays for complex ones, object arrays of
    mpc entries at the working precision for an mpmath x, of fractions for
    rational coefficients and a rational x.  A denominator
    below 1e-6 max(1, |x|)^degree at any point raises a GenericityError
    naming the first such x and no parameter point, which no command redraws.
    """

    def __init__(self, num_coeffs, den_coeffs):
        self.num = [np.asarray(c) for c in num_coeffs]
        self.den = list(den_coeffs)
        self.dnum = [k * c for k, c in enumerate(self.num)][1:] or [0]
        self.dden = [k * c for k, c in enumerate(self.den)][1:] or [0]
        self.degree = len(self.den) - 1

    def __call__(self, x):
        d = _horner(self.den, x)
        # |d| < tol max(1, |x|)^deg point by point, as max(1, a)^deg =
        # max(1, a^deg); a scalar x gives a Python bool, spared np.any
        ad = abs(d)
        near = (ad < _POLE_TOL) | (ad < _POLE_TOL * abs(x) ** self.degree)
        if near is not False and np.any(near):
            first = np.asarray(x)[near].ravel()[0]
            raise GenericityError(f"spectral-parameter pole near x={first}")
        if isinstance(x, np.ndarray):  # one matrix per point
            x, d = x[..., None, None], d[..., None, None]
        return _horner(self.num, x) / d

    def deriv(self, x):
        d, dd = _horner(self.den, x), _horner(self.dden, x)
        if isinstance(x, np.ndarray):
            x, d, dd = x[..., None, None], d[..., None, None], dd[..., None, None]
        return (_horner(self.dnum, x) * d - _horner(self.num, x) * dd) / (d * d)


def _baxterize(t_hat, kj, uj=None) -> RationalMat:
    """The dressed block of the local generator image t_hat with scalar kj:
    the boundary family when uj is given, the middle family otherwise."""
    eye = _eye(t_hat)
    t_inv = t_hat - (kj - 1 / kj) * eye
    if uj is None:
        return RationalMat([kj * t_inv, -kj * t_hat], [1, -(kj**2)])
    c = kj * (1 / uj - uj)
    return RationalMat([kj * t_inv, c * eye, -kj * t_hat], [1, c, -(kj**2)])


@functools.lru_cache(maxsize=16)
def dressed_blocks(params: ParamSet):
    """(K_0, R, K_n): the 2x2 left boundary, 4x4 middle and 2x2 right
    boundary dressed blocks, built once per ParamSet.  Each must be regular
    at x = 1, where it is the identity: a denominator that vanishes there,
    1 - kappa^2 or (1 - kappa_j upsilon_j)(1 + kappa_j/upsilon_j), is a
    GenericityError naming the point (numerics.nonvanishing)."""
    p = params
    blocks = (
        _baxterize(_local_kbar(p), p.kappa0, p.upsilon0),
        _baxterize(_local_upsilon_p(p), p.kappa),
        _baxterize(_local_k(p), p.kappan, p.upsilonn),
    )
    for name, block in zip(("K_0", "R", "K_n"), blocks):
        nonvanishing(block.den, p, f"the denominator of {name} at x = 1")
    return blocks


def baxter_j(params: ParamSet, j: int, x):
    """The dressed generator of index j at x as (block, legs): K_0 on leg 1
    for j = 0, K_n on leg n for j = n, R_j on legs (j, j+1) in between.  An
    array x gives a stack of blocks, one per point."""
    n = params.n
    k0, r, kn = dressed_blocks(params)
    if j == 0:
        return k0(x), [1]
    if j == n:
        return kn(x), [n]
    if 0 < j < n:
        return r(x), [j, j + 1]
    raise InternalDefectError(f"generator index {j} out of range for n={n}")


def check_ybe_re(params: ParamSet, samples: int, rng) -> dict:
    """The dressed-operator identities on the spin representation.

    All sample pairs (x, y) are drawn from rng first, and every identity is
    checked over all of them at once: each dressed generator (baxter_j) is
    evaluated once per (index, argument) pair as a stack over the samples, and
    every identity of two products is handed back as a tensorops.Product of
    its two factor lists, which tensorops.evaluate multiplies out on the union
    of their legs: the full-space residual, the largest over the samples.  The
    one-factor rows (regularity, degeneration) are residuals of blocks.
    Keys beginning with "negative control" must come out LARGE; everything
    else should sit at rounding level for generic parameters.
    """
    n = params.n
    check_identity_rank(n)
    out = {}
    bad = params.replace(upsilon0=params.upsilon0 * 1.01)
    names = [(0, "K0"), (n, "Kn")] + [(i, f"R{i}") for i in range(1, n)]
    x, y = np.array([torus_point(rng, 2, (0.7, 1.4)) for _ in range(samples)]).T
    args = {"x": x, "y": y, "xy": x * y, "y/x": y / x, "x/y": x / y, "1/x": 1 / x}
    B = functools.cache(lambda j, arg: baxter_j(params, j, args[arg]))
    K0x, K0y, Knx, Kny = B(0, "x"), B(0, "y"), B(n, "x"), B(n, "y")
    left = [B(1, "y/x"), K0y, B(1, "xy"), K0x]
    out["reflection at the left boundary"] = Product([K0x, B(1, "xy"), K0y, B(1, "y/x")], left)
    out["reflection at the right boundary"] = Product(
        [Kny, B(n - 1, "xy"), Knx, B(n - 1, "x/y")], [B(n - 1, "x/y"), Knx, B(n - 1, "xy"), Kny])
    for i in range(1, n - 1):
        out[f"yang-baxter braid R{i} R{i + 1}"] = Product(
            [B(i, "x"), B(i + 1, "xy"), B(i, "y")], [B(i + 1, "y"), B(i, "xy"), B(i + 1, "x")])
    for j, name in names:
        out[f"unitarity {name}"] = Product([B(j, "x"), B(j, "1/x")], [])
    for i in range(2, n):
        out[f"far commutation K0 R{i}"] = Product([K0x, B(i, "y")], [B(i, "y"), K0x])
    for i in range(1, n - 2):
        out[f"far commutation Kn R{i}"] = Product([Knx, B(i, "y")], [B(i, "y"), Knx])
    for i in range(1, n):
        for j in range(i + 2, n):
            out[f"far commutation R{i} R{j}"] = Product([B(i, "x"), B(j, "y")], [B(j, "y"), B(i, "x")])
    out["far commutation K0 Kn"] = Product([K0x, Knx], [Knx, K0x])
    # negative control: left reflection with upsilon0 nudged on one side
    out["negative control perturbed reflection"] = Product(
        [baxter_j(bad, 0, x), B(1, "xy"), K0y, B(1, "y/x")], left)
    t_hat = [_local_kbar(params)] + [_local_upsilon_p(params)] * (n - 1) + [_local_k(params)]
    for j, name in names:
        kj, eye = params.kappa_j(j), _eye(t_hat[j])
        out[f"regularity at x=1 {name}"] = rel_residual(baxter_j(params, j, 1)[0], eye)
        out[f"degeneration at x=0 {name}"] = rel_residual(
            baxter_j(params, j, 0)[0], kj * (t_hat[j] - (kj - 1 / kj) * eye))
    return out


def cocycle_factors(params: ParamSet, word, t) -> list:
    """C along a word (any sequence of letters 0..n) as (block, legs)
    factors, left to right: the k-th letter a is the dressed generator of a
    at the point moved by the first k-1 letters, one weyl.act_letter step
    each, taken at sqrt(q)/t_1 for a = 0, t_n for a = n and t_a/t_{a+1}
    otherwise.  The transport along the i-th translation is the word
    weyl.tau_word(i, n); its stationary specialization is the same word at
    params.replace(q_sqrt=1), as the dressed blocks do not depend on q.  The
    coordinates of t may be arrays, which gives stacks of blocks, one per
    point.  A letter outside 0..n reaches baxter_j, which raises
    InternalDefectError.  Their product, applied to an operand by
    tensorops.factor_product, obeys C_{w w'}(t) = C_w(t) C_{w'}(w^{-1} t) by
    construction, and the dressed braid and unitarity identities make it
    depend only on the element the word spells.

    >>> from heckespin.numerics import generic_draws
    >>> from heckespin.tensorops import Product, evaluate, factor_product
    >>> p, t, v = next(generic_draws(1, 2)), (0.9 + 0.2j, 1.1 - 0.3j), np.ones((4, 2))
    >>> bool((factor_product(cocycle_factors(p, [], t), 2, v) == v).all())
    True
    >>> c = [cocycle_factors(p, w, t) for w in ([1, 0, 2, 2, 1], [1, 0, 1])]
    >>> evaluate(Product(*c, a=v, b=v)) < 1e-12
    True"""
    n, pt, factors = params.n, tuple(t), []
    for a in word:
        x = params.q_sqrt / pt[0] if a == 0 else pt[a - 1] / pt[a] if 0 < a < n else pt[-1]
        factors.append(baxter_j(params, a, x))
        pt = act_letter(a, pt, params)
    return factors

"""Spectral-parameter dressing of the generator images, the cocycle and the
translation transport.

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
they evaluate at complex or mpmath x alike; the double-row transfer matrix
uses the same three blocks.

A product of dressed generators is a list of (block, legs) factors run
through tensorops.factor_product; no factor is embedded into a dense 2^n
matrix.  The cocycle C(t) along a word takes one factor per letter
(cocycle_factor), each evaluated at the running image of the torus point;
transport_C_tau is its closed product form along a translation, used by the
difference-equation solver downstream.
"""

from __future__ import annotations

import functools

import numpy as np

from .numerics import ParamSet, PoleProximityError, RefusalError, Residuals, rel_residual, torus_point
from .spinrep import _local_k, _local_kbar, _local_upsilon_p
from .tensorops import factor_product, row_residual
from .weyl import WeylElem, act_point

_POLE_TOL = 1e-6


def _horner(coeffs, x):
    """sum_k coeffs[k] x^k by Horner's rule, for array or scalar coefficients
    and a scalar x of any type; an mpmath x gives mpmath values (object
    arrays for array coefficients)."""
    out = 0j
    for c in reversed(coeffs):
        out = out * x + c
    return out


class RationalMat:
    """Matrix polynomial over a scalar polynomial, with exact x-derivative.

    Evaluation works for any scalar x: a complex x gives a complex array, an
    mpmath x an object array of mpc entries at the working precision.  A
    denominator below 1e-6 max(1, |x|)^degree raises PoleProximityError.
    """

    def __init__(self, num_coeffs, den_coeffs):
        self.num = [np.array(c, dtype=complex) for c in num_coeffs]
        self.den = [complex(c) for c in den_coeffs]

    def __call__(self, x):
        d = _horner(self.den, x)
        if abs(d) < _POLE_TOL * max(1.0, abs(x)) ** (len(self.den) - 1):
            raise PoleProximityError(f"spectral-parameter pole near x={x}")
        return _horner(self.num, x) / d

    def deriv(self, x):
        dn = [k * c for k, c in enumerate(self.num)][1:] or [0j]
        dd = [k * c for k, c in enumerate(self.den)][1:] or [0j]
        n, d = _horner(self.num, x), _horner(self.den, x)
        return (_horner(dn, x) * d - n * _horner(dd, x)) / d**2


def _baxterize(t_hat, kj, uj=None) -> RationalMat:
    """The dressed block of the local generator image t_hat with scalar kj:
    the boundary family when uj is given, the middle family otherwise."""
    eye = np.eye(len(t_hat), dtype=complex)
    t_inv = t_hat - (kj - 1 / kj) * eye
    if uj is None:
        return RationalMat([kj * t_inv, -kj * t_hat], [1.0, -(kj**2)])
    c = kj * (1 / uj - uj)
    return RationalMat([kj * t_inv, c * eye, -kj * t_hat], [1.0, c, -(kj**2)])


@functools.lru_cache(maxsize=16)
def dressed_blocks(params: ParamSet):
    """(K_0, R, K_n): the 2x2 left boundary, 4x4 middle and 2x2 right
    boundary dressed blocks, built once per ParamSet."""
    p = params
    return (
        _baxterize(_local_kbar(p), p.kappa0, p.upsilon0),
        _baxterize(_local_upsilon_p(p), p.kappa),
        _baxterize(_local_k(p), p.kappan, p.upsilonn),
    )


def baxter_j(params: ParamSet, j: int, x):
    """The dressed generator of index j at x as (block, legs): K_0 on leg 1
    for j = 0, K_n on leg n for j = n, R_j on legs (j, j+1) in between."""
    n = params.n
    k0, r, kn = dressed_blocks(params)
    if j == 0:
        return k0(x), [1]
    if j == n:
        return kn(x), [n]
    if 0 < j < n:
        return r(x), [j, j + 1]
    raise ValueError(f"generator index {j} out of range for n={n}")


def check_identity_rank(n: int) -> None:
    """Refuse a chain too short for the identity suite: the reflection rows
    need a middle generator (n >= 2)."""
    if n < 2:
        raise RefusalError("the identity suite needs n >= 2")


def check_ybe_re(params: ParamSet, samples: int = 20, seed: int = 1) -> dict:
    """Residuals of the dressed-operator identities on the spin representation.

    Both sides of every identity are factor lists evaluated on the union of
    their legs (tensorops.row_residual), which gives the full-space
    residual; each dressed block is evaluated once per argument within a
    sample.  The one-factor rows (regularity, degeneration) compare blocks.
    Keys beginning with "negative control" must come out LARGE; everything
    else should sit at rounding level for generic parameters.
    """
    n = params.n
    check_identity_rank(n)
    rng = np.random.default_rng(seed)
    out = Residuals()
    bad = params.replace(upsilon0=params.upsilon0 * 1.01)
    names = [(0, "K0"), (n, "Kn")] + [(i, f"R{i}") for i in range(1, n)]
    blocks, memo = dressed_blocks(params), {}

    def B(j, arg):
        """baxter_j(params, j, arg), each (block, argument) evaluated once
        per sample."""
        kind = 0 if j == 0 else 2 if j == n else 1
        if (kind, arg) not in memo:
            memo[kind, arg] = blocks[kind](arg)
        return memo[kind, arg], [1] if kind == 0 else [n] if kind == 2 else [j, j + 1]

    def same(key, lhs, rhs):
        out.add(key, row_residual(lhs, rhs))

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
        # negative control: left reflection with upsilon0 nudged on one side
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


def cocycle_factor(params: ParamSet, a: int, t):
    """C_{s_a}(t) as (block, legs): the dressed generator of letter a at the
    torus point t, taken at sqrt(q)/t_1 for a = 0, t_n for a = n, t_a/t_{a+1}
    otherwise."""
    if a == 0:
        return baxter_j(params, 0, params.q_sqrt / t[0])
    if a == params.n:
        return baxter_j(params, a, t[-1])
    return baxter_j(params, a, t[a - 1] / t[a])


def cocycle_C(params: ParamSet, word, t) -> np.ndarray:
    """C along a word (any sequence of letters 0..n): the k-th letter's
    factor is taken at the point moved by the first k-1 letters, so
    C_{w w'}(t) = C_w(t) C_{w'}(w^{-1} t) holds by construction, and the
    dressed braid and unitarity identities make the product depend only on
    the group element the word spells.

    >>> from heckespin.numerics import rel_residual, sample_generic
    >>> from heckespin.weyl import reduced_word
    >>> p = sample_generic(seed=1, n=2)
    >>> t = (0.9 + 0.2j, 1.1 - 0.3j)
    >>> bool((cocycle_C(p, [], t) == np.eye(4)).all())
    True
    >>> word = [1, 0, 2, 2, 1]
    >>> reduced_word(WeylElem.from_word(word, 2))
    [1, 0, 1]
    >>> rel_residual(cocycle_C(p, word, t), cocycle_C(p, [1, 0, 1], t)) < 1e-12
    True
    """
    factors = []
    point = tuple(t)
    for a in word:
        factors.append(cocycle_factor(params, a, point))
        point = act_point(WeylElem.generator(a, params.n), point, params)
    return factor_product(factors, params.n)


def transport_factors(params: ParamSet, i: int, t, q_override=None) -> list:
    """The factors of C along the i-th translation, left to right.

    Descending middle factors R_j(t_j/t_i) for j = i-1..1, the left boundary
    factor at sqrt(q)/t_i, ascending middle factors at q/(t_j t_i) for
    j = 1..i-1 then at q/(t_i t_{j+1}) for j = i..n-1, the right boundary
    factor at q/t_i, and descending middle factors at q t_{j+1}/t_i for
    j = n-1..i.  With q_override the shift scalar is replaced (the torus
    point is untouched); q_override=1 is the stationary specialization used
    by the transfer-matrix comparison.
    """
    n = params.n
    if not 1 <= i <= n:
        raise ValueError("translation index out of range")
    q = params.q if q_override is None else complex(q_override)
    q_sqrt = params.q_sqrt if q_override is None else complex(q_override) ** 0.5
    ti = t[i - 1]
    B = functools.partial(baxter_j, params)
    return (
        [B(j, t[j - 1] / ti) for j in range(i - 1, 0, -1)]
        + [B(0, q_sqrt / ti)]
        + [B(j, q / (t[j - 1] * ti)) for j in range(1, i)]
        + [B(j, q / (ti * t[j])) for j in range(i, n)]
        + [B(n, q / ti)]
        + [B(j, q * t[j] / ti) for j in range(n - 1, i - 1, -1)]
    )


def transport_C_tau(params: ParamSet, i: int, t, q_override=None) -> np.ndarray:
    """The closed product form of C along the i-th translation (the factors
    of transport_factors multiplied out)."""
    return factor_product(transport_factors(params, i, t, q_override), params.n)

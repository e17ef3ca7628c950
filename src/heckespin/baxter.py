"""Spectral-parameter dressing of the generator images and transport operators.

For a representation with matrices for T_j and their inverses (a SpinRep),
baxter_j(rep, j, x) is the dressed generator of index j, one of three
rational families

    K_0(x) = (T_0^{-1} + (1/u0 - u0) x - x^2 T_0) / (ko^{-1} (1 - k0 u0 x)(1 + k0 x/u0))
    R_i(x) = (T_i^{-1} - x T_i) / (kappa^{-1} (1 - kappa^2 x))
    K_n(x) = same shape as K_0 with the right-boundary scalars

that satisfy the reflection and Yang-Baxter identities, are unitary in the
sense K(x) K(1/x) = Id, equal the identity at x = 1, and degenerate to
kappa_j T_j^{-1} at x = 0.  Closed 2x2 and 4x4 forms for the spin
representation are provided as matrix-polynomial quotients (RationalMat) so
that derivatives in x are exact; they evaluate at complex or mpmath x alike.

The cocycle C(t) along a word multiplies one dressed factor per letter
(cocycle_factor), each evaluated at the running image of the torus point;
transport_C_tau is its closed product form along a translation, used by the
difference-equation solver downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ParamSet, PoleProximityError, rel_residual, torus_point
from .weyl import WeylElem, act_point, tau_word

_POLE_TOL = 1e-6


def _guard(x, *factors):
    for f in factors:
        if abs(f) < _POLE_TOL * max(1.0, abs(x)):
            raise PoleProximityError(f"spectral-parameter pole near x={x}")


def baxter_j(rep, j: int, x) -> np.ndarray:
    """The dressed generator of index j at x: K_0 for j = 0, K_n for j = n
    (the boundary branch, with kappa_j and upsilon_j), R_j in between."""
    p = rep.params
    kj = p.kappa_j(j)
    if j in (0, p.n):
        uj = p.upsilon_j(j)
        d1, d2 = 1 - kj * uj * x, 1 + kj / uj * x
        _guard(x, d1, d2)
        eye = np.eye(rep.dim, dtype=complex)
        num = rep.Tinv[j] + (1 / uj - uj) * x * eye - x**2 * rep.T[j]
        return num * (kj / (d1 * d2))
    den = 1 - kj**2 * x
    _guard(x, den)
    return (rep.Tinv[j] - x * rep.T[j]) * (kj / den)


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
    mpmath x an object array of mpc entries at the working precision.
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


@dataclass
class ExplicitRKK:
    """Closed-form local matrices of the dressed spin operators."""

    r: RationalMat
    kbar: RationalMat
    k: RationalMat


def explicit_rkk(params: ParamSet) -> ExplicitRKK:
    p = params
    k, k0, kn = p.kappa, p.kappa0, p.kappan
    u0, un, psi0, psin = p.upsilon0, p.upsilonn, p.psi0, p.psin
    r0 = np.array(
        [
            [1, 0, 0, 0],
            [0, k, 1 - k**2, 0],
            [0, 0, k, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )
    r1 = np.array(
        [
            [-(k**2), 0, 0, 0],
            [0, -k, 0, 0],
            [0, 1 - k**2, -k, 0],
            [0, 0, 0, -(k**2)],
        ],
        dtype=complex,
    )
    r = RationalMat([r0, r1], [1.0, -(k**2)])
    kb0 = k0 * np.array([[0, psi0], [1 / psi0, 1 / k0 - k0]], dtype=complex)
    kb1 = k0 * (1 / u0 - u0) * np.eye(2, dtype=complex)
    kb2 = k0 * np.array([[1 / k0 - k0, -psi0], [-1 / psi0, 0]], dtype=complex)
    kbar = RationalMat([kb0, kb1, kb2], [1.0, k0 * (1 / u0 - u0), -(k0**2)])
    kk0 = kn * np.array([[1 / kn - kn, 1 / psin], [psin, 0]], dtype=complex)
    kk1 = kn * (1 / un - un) * np.eye(2, dtype=complex)
    kk2 = kn * np.array([[0, -1 / psin], [-psin, 1 / kn - kn]], dtype=complex)
    kmat = RationalMat([kk0, kk1, kk2], [1.0, kn * (1 / un - un), -(kn**2)])
    return ExplicitRKK(r=r, kbar=kbar, k=kmat)


def check_ybe_re(params: ParamSet, samples: int = 20, seed: int = 1) -> dict:
    """Residuals of the dressed-operator identities on the spin representation.

    Keys beginning with "negative control" must come out LARGE; everything
    else should sit at rounding level for generic parameters.
    """
    from .spinrep import build_spin_rep

    n = params.n
    if n < 2:
        raise ValueError("the identity suite needs n >= 2")
    rep = build_spin_rep(params)
    rng = np.random.default_rng(seed)
    out: dict = {}

    def acc(key, val):
        out[key] = max(out.get(key, 0.0), val)

    def B(j, x):
        return baxter_j(rep, j, x)

    eye = np.eye(rep.dim, dtype=complex)
    rep_bad = build_spin_rep(params.replace(upsilon0=params.upsilon0 * 1.01))
    for _ in range(samples):
        x, y = torus_point(rng, 2, (0.7, 1.4))
        K0x, K0y = B(0, x), B(0, y)
        lhs = K0x @ B(1, x * y) @ K0y @ B(1, y / x)
        rhs = B(1, y / x) @ K0y @ B(1, x * y) @ K0x
        acc("reflection at the left boundary", rel_residual(lhs, rhs))
        Knx, Kny = B(n, x), B(n, y)
        lhs = Kny @ B(n - 1, x * y) @ Knx @ B(n - 1, x / y)
        rhs = B(n - 1, x / y) @ Knx @ B(n - 1, x * y) @ Kny
        acc("reflection at the right boundary", rel_residual(lhs, rhs))
        for i in range(1, n - 1):
            lhs = B(i, x) @ B(i + 1, x * y) @ B(i, y)
            rhs = B(i + 1, y) @ B(i, x * y) @ B(i + 1, x)
            acc(f"yang-baxter braid R{i} R{i + 1}", rel_residual(lhs, rhs))
        acc("unitarity K0", rel_residual(K0x @ B(0, 1 / x), eye))
        acc("unitarity Kn", rel_residual(Knx @ B(n, 1 / x), eye))
        for i in range(1, n):
            acc(f"unitarity R{i}", rel_residual(B(i, x) @ B(i, 1 / x), eye))
        for i in range(2, n):
            acc(
                f"far commutation K0 R{i}",
                rel_residual(K0x @ B(i, y), B(i, y) @ K0x),
            )
        for i in range(1, n - 2):
            acc(
                f"far commutation Kn R{i}",
                rel_residual(Knx @ B(i, y), B(i, y) @ Knx),
            )
        for i in range(1, n):
            for j in range(i + 2, n):
                acc(
                    f"far commutation R{i} R{j}",
                    rel_residual(B(i, x) @ B(j, y), B(j, y) @ B(i, x)),
                )
        acc("far commutation K0 Kn", rel_residual(K0x @ Knx, Knx @ K0x))
        # negative control: left reflection with upsilon0 nudged on one side
        bad = baxter_j(rep_bad, 0, x)
        lhs = bad @ B(1, x * y) @ K0y @ B(1, y / x)
        rhs = B(1, y / x) @ K0y @ B(1, x * y) @ K0x
        acc("negative control perturbed reflection", rel_residual(lhs, rhs))
    for j, name in [(0, "K0"), (n, "Kn")] + [(i, f"R{i}") for i in range(1, n)]:
        acc(f"regularity at x=1 {name}", rel_residual(B(j, 1.0), eye))
        acc(
            f"degeneration at x=0 {name}",
            rel_residual(B(j, 0.0), params.kappa_j(j) * rep.Tinv[j]),
        )
    return out


def cocycle_factor(rep, a: int, t) -> np.ndarray:
    """C_{s_a}(t): the dressed generator of letter a at the torus point t,
    taken at sqrt(q)/t_1 for a = 0, t_n for a = n, t_a/t_{a+1} otherwise."""
    p = rep.params
    if a == 0:
        return baxter_j(rep, 0, p.q_sqrt / t[0])
    if a == p.n:
        return baxter_j(rep, a, t[-1])
    return baxter_j(rep, a, t[a - 1] / t[a])


def cocycle_C(rep, word, t) -> np.ndarray:
    """C along a word (any sequence of letters 0..n): the k-th letter's
    factor is taken at the point moved by the first k-1 letters, so
    C_{w w'}(t) = C_w(t) C_{w'}(w^{-1} t) holds by construction, and the
    dressed braid and unitarity identities make the product depend only on
    the group element the word spells.

    >>> from heckespin.numerics import rel_residual, sample_generic
    >>> from heckespin.spinrep import build_spin_rep
    >>> from heckespin.weyl import reduced_word
    >>> rep = build_spin_rep(sample_generic(seed=1, n=2))
    >>> t = (0.9 + 0.2j, 1.1 - 0.3j)
    >>> bool((cocycle_C(rep, [], t) == np.eye(4)).all())
    True
    >>> word = [1, 0, 2, 2, 1]
    >>> reduced_word(WeylElem.from_word(word, 2))
    [1, 0, 1]
    >>> rel_residual(cocycle_C(rep, word, t), cocycle_C(rep, [1, 0, 1], t)) < 1e-12
    True
    """
    p = rep.params
    out = np.eye(rep.dim, dtype=complex)
    point = tuple(t)
    for a in word:
        out = out @ cocycle_factor(rep, a, point)
        point = act_point(WeylElem.generator(a, p.n), point, p)
    return out


def transport_C_tau(rep, i: int, t, q_override=None) -> np.ndarray:
    """The closed product form of C along the i-th translation.

    Factors, left to right: descending middle factors R_j(t_j/t_i) for
    j = i-1..1, the left boundary factor at sqrt(q)/t_i, ascending middle
    factors at q/(t_j t_i) for j = 1..i-1 then at q/(t_i t_{j+1}) for
    j = i..n-1, the right boundary factor at q/t_i, and descending middle
    factors at q t_{j+1}/t_i for j = n-1..i.  With q_override the shift
    scalar is replaced (the torus point is untouched); q_override=1 is the
    stationary specialization used by the transfer-matrix comparison.
    """
    p = rep.params
    n = p.n
    if not 1 <= i <= n:
        raise ValueError("translation index out of range")
    q = p.q if q_override is None else complex(q_override)
    q_sqrt = p.q_sqrt if q_override is None else complex(q_override) ** 0.5
    ti = t[i - 1]
    out = np.eye(rep.dim, dtype=complex)
    for j in range(i - 1, 0, -1):
        out = out @ baxter_j(rep, j, t[j - 1] / ti)
    out = out @ baxter_j(rep, 0, q_sqrt / ti)
    for j in range(1, i):
        out = out @ baxter_j(rep, j, q / (t[j - 1] * ti))
    for j in range(i, n):
        out = out @ baxter_j(rep, j, q / (ti * t[j]))
    out = out @ baxter_j(rep, n, q / ti)
    for j in range(n - 1, i - 1, -1):
        out = out @ baxter_j(rep, j, q * t[j] / ti)
    return out


def tau_elem(i: int, n: int) -> WeylElem:
    return WeylElem.from_word(tau_word(i, n), n)

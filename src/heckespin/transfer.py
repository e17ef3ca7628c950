"""Double-row transfer matrices on the spin chain and the open Hamiltonian.

The monodromy operator threads one auxiliary two-dimensional leg through all
n chain sites with the dressed middle block R (baxter.dressed_blocks), hits
the right boundary block K_n, and comes back; closing it with the dressed
left boundary block K_0 and a partial trace over the auxiliary leg gives a
one-parameter family T(x; t) of commuting operators on (C^2)^(x n).

T is contracted as a matrix product operator of bond dimension 4 (Sklyanin,
J. Phys. A 21, 2375 (1988); Murg, Korepin & Verstraete, Phys. Rev. B 86,
045125 (2012)): chain site j carries its forward block R(x/t_j) and its
backward block R(x t_j), the auxiliary leg's in and out indices form the
bond, and the chain is contracted one site at a time from the closure
theta K_0(kappa^2 x) theta, with K_n folded into the last site.  No
operator on the 2^(n+1)-dimensional double space is formed.  The
derivative rides along by the product rule on every site, which is the
contraction of the bond-doubled triangular MPO [[W, W'], [0, W]].  The
blocks evaluate at any scalar type, so the extended-precision T is
transfer_T itself, called with mpmath x and t (object arrays throughout).
Contracted from the open start eye(4) instead of the closure, the same MPO
leaves the auxiliary leg open and gives the monodromy operator U, the
double row without the closure (monodromy_U).  check_transfer compares it
with an independent construction: the double row as a list of local
factors on adjacent legs (_double_row), multiplied out one at a time.

Three equivalent presentations of the boundary XXZ Hamiltonian are exposed:
the logarithmic derivative of the normalized transfer matrix at x = 1, the
explicit Pauli-matrix form, and the weighted sum of the diagrammatic
generator images.  The stationary identity linking T at x = 1/t_i and at
x = t_i to the translation transport (with the shift scalar set to 1) is in
check_transfer_vs_transport.
"""

from __future__ import annotations

import numpy as np

from .baxter import dressed_blocks, transport_C_tau
from .numerics import InternalDefectError, ParamSet, Residuals, max_abs, rel_residual, torus_point
from .spinrep import build_spin_rep
from .tensorops import (
    PERMUTE_TWO,
    factor_product,
    kron_all,
    op_on_legs,
    partial_trace_first,
    partial_transpose_leg,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SPLUS = np.array([[0, 1], [0, 0]], dtype=complex)
SMINUS = np.array([[0, 0], [1, 0]], dtype=complex)


def theta_matrix(params: ParamSet) -> np.ndarray:
    ks = params.kappa_sqrt
    return np.array([[1 / ks, 0], [0, ks]], dtype=complex)


def phi_bulk(x, params: ParamSet):
    k = params.kappa
    return (1 - x) * (1 - k**4 * x) / (1 - k**2 * x) ** 2


def phi_bdy(x, params: ParamSet):
    k, k0, u0 = params.kappa, params.kappa0, params.upsilon0
    num = k * (1 - k0 * u0 * x) * (1 + k0 / u0 * x) * (1 - k**4 * x**2)
    den = (1 - k**2 * k0 * u0 * x) * (1 + k**2 * k0 / u0 * x) * (1 - k**2 * x**2)
    return num / den


def c0_constant(params: ParamSet):
    k, k0, u0 = params.kappa, params.kappa0, params.upsilon0
    num = (k**2 - k0 * u0) * (k**2 + k0 / u0)
    den = (1 - k0 * u0) * (1 + k0 / u0)
    return -num / (k * (1 + k**2) * den)


def _double_row(params: ParamSet, x, t) -> list:
    """The monodromy operator U(x; t) as local factors (block, legs), left
    to right, on the auxiliary leg 1 and chain legs 2..n+1: the middle block
    R walks adjacent legs out and back, with the right boundary block on the
    last chain leg.  With mpmath x and t the blocks are mpmath object arrays
    at the working precision.
    """
    n = params.n
    _kbar, R, k = dressed_blocks(params)
    out = [(R(x / t[j - 1]), [j, j + 1]) for j in range(1, n + 1)]
    out.append((k(x), [n + 1]))
    return out + [(R(x * t[j - 1]), [j, j + 1]) for j in range(n, 0, -1)]


def monodromy_U(params: ParamSet, x, t) -> np.ndarray:
    """U(x; t), the double row without the closure, on the auxiliary leg 1
    and chain legs 2..n+1: the MPO of transfer_T contracted from the open
    start, where bond (c, d) starts at |c><d| on the auxiliary leg, so that
    leg stays the leading row and column leg."""
    return _transfer_mpo(params, x, t, deriv=False, start=np.eye(4).reshape(4, 2, 2))[0]


def _leibniz(op, a, b) -> list:
    """op of two jets, [value] or [value, x-derivative], for a bilinear op:
    the value, and its derivative by the product rule when a carries one."""
    out = [op(a[0], b[0])]
    if len(a) > 1:
        out.append(op(a[1], b[0]) + op(a[0], b[1]))
    return out


def _site(fwd, bwd):
    """The site tensor [in bond, out bond, row, col] of one chain site: the
    forward r = R P on (aux, site) followed by the backward r on (site,
    aux), from the two middle blocks R.  The bond is the pair (forward aux
    index, backward aux index); P only reorders the column legs."""
    # fwd[c s, t c'] and bwd[t d', d u]: contract the middle site index t
    w = fwd.reshape(2, 2, 2, 2).transpose(0, 1, 3, 2).reshape(8, 2) @ bwd.reshape(2, 8)
    return w.reshape((2,) * 6).transpose(0, 4, 2, 3, 1, 5).reshape(4, 4, 2, 2)


def _absorb(left, w):
    """The environment left [bond, row, col] on the first sites times the
    next site tensor w: the environment on one more site."""
    bond, d = w.shape[1], left.shape[1]
    out = left.reshape(len(left), d * d).T @ w.reshape(len(w), 4 * bond)
    return out.reshape(d, d, bond, 2, 2).transpose(2, 0, 3, 1, 4).reshape(bond, 2 * d, 2 * d)


def _transfer_mpo(params: ParamSet, x, t, deriv: bool, start=None) -> list:
    """[T(x; t)] or [T, dT/dx], contracted site by site from the MPO.  The
    start environment [bond, row, col] is the closure unless ``start`` is
    given; a given start carries no derivative."""
    n = params.n
    kbar, R, k = dressed_blocks(params)
    th, k2 = theta_matrix(params), params.kappa**2

    def jet(f, arg, slope):
        return [f(arg)] + ([slope * f.deriv(arg)] if deriv else [])

    # the trace pairs the closure's column with the backward row: bond (c, d)
    # starts at A[d, c]; the right boundary closes it with K_n[c, d]
    if start is None:
        left = [(th @ a @ th).T.reshape(4, 1, 1) for a in jet(kbar, k2 * x, k2)]
    else:
        left = [start]
    right = [a.reshape(4) for a in jet(k, x, 1)]
    for j in range(1, n + 1):
        fwd, bwd = jet(R, x / t[j - 1], 1 / t[j - 1]), jet(R, x * t[j - 1], t[j - 1])
        w = _leibniz(_site, fwd, bwd)
        if j == n:  # fold K_n into the out bond of the last site
            w = _leibniz(lambda a, b: (a.transpose(0, 2, 3, 1) @ b)[:, None], w, right)
        left = _leibniz(_absorb, left, w)
    return [a[0] for a in left]


def transfer_T(params: ParamSet, x, t) -> np.ndarray:
    """T(x; t): the double row closed with theta K_0(kappa^2 x) theta and
    traced over the auxiliary leg, contracted as a bond-4 MPO."""
    return _transfer_mpo(params, x, t, deriv=False)[0]


def transfer_T_deriv(params: ParamSet, x, t):
    """(T(x; t), dT/dx) with the derivative taken exactly by the product
    rule, in the same pass over the sites."""
    return tuple(_transfer_mpo(params, x, t, deriv=True))


def _aux_normalizer(params: ParamSet, x):
    """Scalar Tr(theta K_0(kappa^2 x) theta) and its x-derivative."""
    kbar = dressed_blocks(params)[0]
    th = theta_matrix(params)
    k2 = params.kappa**2
    g = np.trace(th @ kbar(k2 * x) @ th)
    gp = k2 * np.trace(th @ kbar.deriv(k2 * x) @ th)
    return g, gp


def check_transfer(params: ParamSet, samples: int = 8, seed: int = 2) -> dict:
    """Residuals of the structural transfer-matrix identities."""
    n = params.n
    rng = np.random.default_rng(seed)
    out = Residuals()
    kbar, R, _k = dressed_blocks(params)
    th = theta_matrix(params)
    k = params.kappa
    for _ in range(samples):
        x, y, *t = torus_point(rng, n + 2, (0.75, 1.35))
        out.add(
            "monodromy form agreement",
            rel_residual(
                factor_product(_double_row(params, x, t), n + 1), monodromy_U(params, x, t)
            ),
        )
        Tx, Ty = transfer_T(params, x, t), transfer_T(params, y, t)
        out.add(
            "commuting transfer matrices",
            rel_residual(Tx @ Ty, Ty @ Tx, scale=max(1.0, np.abs(Tx @ Ty).max())),
        )
        rx = R(x) @ PERMUTE_TWO
        out.add(
            "transpose flip of r",
            rel_residual(PERMUTE_TWO @ rx @ PERMUTE_TWO, rx.T),
        )
        th2 = kron_all([th, th])
        lhs = (
            np.linalg.inv(th2)
            @ partial_transpose_leg(R(1 / (k**4 * x)) @ PERMUTE_TWO, 1, 2)
            @ th2
            @ partial_transpose_leg(rx, 2, 2)
        )
        out.add(
            "crossing unitarity",
            rel_residual(lhs, phi_bulk(x, params) * np.eye(4)),
        )
        closure = [(th @ kbar(k**2 * x) @ th, [1]), (R(x**2), [1, 2])]
        out.add(
            "boundary crossing",
            rel_residual(
                partial_trace_first(factor_product(closure, 2), 2),
                phi_bdy(x, params) * kbar(x),
            ),
        )
    ones = (1.0,) * n
    g1, _ = _aux_normalizer(params, 1.0)
    out.add(
        "normalized transfer at x=1",
        rel_residual(transfer_T(params, 1.0, ones) / g1, np.eye(2**n)),
    )
    return out


def check_transfer_vs_transport(
    params: ParamSet, samples: int = 5, seed: int = 4
) -> dict:
    """The transfer matrix at x = 1/t_i and x = t_i against the stationary
    transport C along the i-th translation.

    T(1/t_i) = phi(1/t_i) C is compared directly.  The inverse direction
    T(t_i) = phi(t_i) C^{-1} is checked in product form, T(t_i) C against
    phi(t_i) Id scaled by max|T| max|C|, because C reaches condition numbers
    of 1e12 at n = 6 and inverting it loses that many digits.  The transport
    is evaluated with its shift scalar set to 1; the transfer side never sees
    the shift at all.
    """
    n = params.n
    rng = np.random.default_rng(seed)
    out = Residuals()
    eye = np.eye(2**n)
    for _ in range(samples):
        t = torus_point(rng, n, (0.8, 1.3))
        for i in range(1, n + 1):
            ti = t[i - 1]
            trans = transport_C_tau(params, i, t, q_override=1)
            out.add(
                f"stationary transport at x=1/t_{i}",
                rel_residual(
                    transfer_T(params, 1 / ti, t), phi_bdy(1 / ti, params) * trans
                ),
            )
            tt = transfer_T(params, ti, t)
            scale = max_abs(tt) * max_abs(trans)
            out.add(
                f"stationary inverse transport at x=t_{i}",
                rel_residual(tt @ trans, phi_bdy(ti, params) * eye, scale=scale),
            )
    return out


def tl_weight(params: ParamSet, j: int):
    """Coefficient of the j-th diagrammatic generator in the Hamiltonian.

    Middle generators enter with weight 1.  At the boundaries the derivative
    identities k'_n(1)/2 = d_n e_n and the traced left analog hold with
    d_j = -kappa_j (kappa/kappa_j + kappa_j/kappa) / ((1 - kappa_j upsilon_j)
    (1 + kappa_j/upsilon_j)), and the logarithmic-derivative definition
    multiplies both boundary contributions by (kappa - 1/kappa).
    """
    n, k = params.n, params.kappa
    if j not in (0, n):
        return 1.0 + 0j
    kj = params.kappa_j(j)
    uj = params.upsilon_j(j)
    dj = -kj * (k / kj + kj / k) / ((1 - kj * uj) * (1 + kj / uj))
    return (k - 1 / k) * dj


def _chain_constant(params: ParamSet):
    k, n = params.kappa, params.n
    total = 0.0 + 0j
    for kj, uj in (
        (params.kappa0, params.upsilon0),
        (params.kappan, params.upsilonn),
    ):
        total += (1 + kj**2) / ((1 - kj * uj) * (1 + kj / uj))
    return (k - 1 / k) / 2 * total - (n - 1) / 4 * (k + 1 / k)


def hamiltonian(params: ParamSet, form: str = "pauli") -> np.ndarray:
    """The open-chain Hamiltonian on (C^2)^(x n), three ways.

    form="transfer" differentiates the normalized transfer matrix at x = 1
    near the homogeneous point; form="pauli" is the explicit two-line
    expression; form="tl" weights the diagrammatic generator images.
    """
    n = params.n
    k = params.kappa
    if form == "transfer":
        ones = (1.0,) * n
        tval, tder = transfer_T_deriv(params, 1.0, ones)
        g, gp = _aux_normalizer(params, 1.0)
        nval = tval / g
        if rel_residual(nval, np.eye(2**n)) > 1e-9:
            raise InternalDefectError("normalized transfer is not Id at x=1")
        nder = tder / g - tval * (gp / g**2)
        return (k - 1 / k) / 2 * nder - c0_constant(params) * np.eye(2**n)
    if form == "pauli":
        acc = np.zeros((2**n, 2**n), dtype=complex)
        bulk2 = (
            kron_all([SX, SX])
            + kron_all([SY, SY])
            + (k + 1 / k) / 2 * kron_all([SZ, SZ])
        )
        for i in range(1, n):
            acc += op_on_legs(bulk2, [i, i + 1], n)
        # boundary field sign: the raising/lowering terms carry the sign that
        # the logarithmic-derivative definition produces (the opposite choice
        # is the same operator conjugated by sigma^Z on every site)
        k0, u0, psi0 = params.kappa0, params.upsilon0, params.psi0
        kn, un, psin = params.kappan, params.upsilonn, params.psin
        left = (
            (1 + k0 * u0) * (1 - k0 / u0) * SZ
            - 4 * k0 * (psi0 * SPLUS + SMINUS / psi0)
        ) / ((1 + k0 / u0) * (1 - k0 * u0))
        right = (
            (1 + kn * un) * (1 - kn / un) * SZ
            + 4 * kn * (SPLUS / psin + psin * SMINUS)
        ) / ((1 + kn / un) * (1 - kn * un))
        acc += (
            (k - 1 / k)
            / 2
            * (op_on_legs(left, [1], n) - op_on_legs(right, [n], n))
        )
        return acc / 2 + _chain_constant(params) * np.eye(2**n)
    if form == "tl":
        rep = build_spin_rep(params)
        acc = np.zeros((2**n, 2**n), dtype=complex)
        for j in range(n + 1):
            block, legs = rep.e[j]
            acc += op_on_legs(tl_weight(params, j) * block, legs, n)
        return acc
    raise ValueError("form must be 'transfer', 'pauli', or 'tl'")


def transfer_T_mp(params: ParamSet, x, t, digits: int = 50) -> np.ndarray:
    """Extended-precision recomputation of T(x; t) at any n: transfer_T run
    on mpmath x and t, so that every block and product is in mpmath
    arithmetic at ``digits``; used as a roundoff regression anchor.
    """
    import mpmath

    with mpmath.workdps(digits):
        pt = tuple(mpmath.mpc(v) for v in t)
        return transfer_T(params, mpmath.mpc(x), pt).astype(complex)

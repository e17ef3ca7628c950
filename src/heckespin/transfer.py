"""Double-row transfer matrices on the spin chain and the open Hamiltonian.

The monodromy operator threads one auxiliary two-dimensional leg through all
n chain sites with the dressed middle block R (baxter.dressed_blocks), hits
the right boundary block K_n, and comes back; closing it with the dressed
left boundary block K_0 and a partial trace over the auxiliary leg gives a
one-parameter family T(x; t) of commuting operators on (C^2)^(x n).

T is a matrix product operator of bond dimension 4 (Sklyanin, J. Phys. A
21, 2375 (1988); Murg, Korepin & Verstraete, Phys. Rev. B 86, 045125
(2012)): chain site j carries its forward block R(x/t_j) and its backward
block R(x t_j), the auxiliary leg's in and out indices form the bond, the
closure theta K_0(kappa^2 x) theta starts it and K_n is folded into the
last site.  One generator (_mpo) gives the sites of both operators; neither
forms an operator on the double space.  transfer_mpo folds the closure into
the first site, and tensorops.apply_mpo runs a block V through the sites and
gives T V (Schollwoeck, Ann. Phys. 326, 96 (2011), sec. 5); x, the t_j and
V may carry a point axis.  The monodromy U, the double row without the
closure, is the same sites after one auxiliary site that leaves the
auxiliary leg open in V's rows; jets [value, d/dx] give [T V, dT/dx V], and
mpmath x and t give mpmath sites.  The dense T and dT/dx, which only the
spectrum table's Hamiltonian asks for, are the same pass on the identity.
The checks compare operators on random vectors (Freivalds, IFIP 1977): the
monodromy and commuting rows are tensorops.Product records with MPO factors.

The boundary XXZ Hamiltonian is applied to a block V three ways: the
logarithmic derivative of the normalized transfer matrix at x = 1 (one jet
pass), the explicit Pauli-matrix form and the weighted sum of the
diagrammatic generator images, both sums of local terms on V.  The
stationary identity linking T at x = 1/t_i and at x = t_i to the
translation transport at q = 1 is in check_transfer_vs_transport.
"""

from __future__ import annotations

import numpy as np

from . import InternalDefectError
from .baxter import cocycle_factors, dressed_blocks
from .numerics import ParamSet, _point_max, max_abs, nonvanishing, rel_residual, torus_point
from .spinrep import boundary_norm, build_spin_rep
from .tensorops import (
    PERMUTE_TWO,
    Product,
    _leibniz,
    apply_mpo,
    apply_on_legs,
    factor_product,
    gaussian_block,
    partial_trace_first,
    partial_transpose_leg,
)
from .weyl import tau_word

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


def _boundary_den(params: ParamSet, j: int):
    """(1 - kappa_j upsilon_j)(1 + kappa_j/upsilon_j), the denominator of the
    dressed boundary block K_j at x = 1, each factor guarded by
    numerics.nonvanishing, for j = 0 or n."""
    kj, uj = params.kappa_j(j), params.upsilon_j(j)
    return (nonvanishing((1, -(kj * uj)), params, f"1 - kappa_j upsilon_j at j={j}")
            * nonvanishing((1, kj / uj), params, f"1 + kappa_j/upsilon_j at j={j}"))


def c0_constant(params: ParamSet):
    k, k0, u0 = params.kappa, params.kappa0, params.upsilon0
    num = (k**2 - k0 * u0) * (k**2 + k0 / u0)
    return -num / (k * nonvanishing((1, k**2), params, "1 + kappa^2") * _boundary_den(params, 0))


def _double_row(params: ParamSet, x, t) -> list:
    """The monodromy operator U(x; t) as local factors (block, legs), left
    to right, on the auxiliary leg 1 and chain legs 2..n+1: the middle block
    R walks adjacent legs out and back, with the right boundary block on the
    last chain leg.  With mpmath x and t the blocks are mpmath object arrays
    at the working precision; with arrays of points, stacks of blocks.
    """
    n = params.n
    _kbar, R, k = dressed_blocks(params)
    out = [(R(x / t[j - 1]), [j, j + 1]) for j in range(1, n + 1)]
    out.append((k(x), [n + 1]))
    return out + [(R(x * t[j - 1]), [j, j + 1]) for j in range(n, 0, -1)]


def _site(fwd, bwd):
    """The site tensor [in bond, out bond, row, col] of one chain site: the
    forward r = R P on (aux, site) followed by the backward r on (site,
    aux), from the two middle blocks R.  The bond is the pair (forward aux
    index, backward aux index); P only reorders the column legs."""
    # fwd[c s, t c'] and bwd[t d', d u]: contract the middle site index t
    lead = fwd.shape[:-2]
    w = np.swapaxes(fwd.reshape(lead + (2,) * 4), -1, -2).reshape(lead + (8, 2)) @ bwd.reshape(lead + (2, 8))
    w = np.moveaxis(w.reshape(lead + (2,) * 6), (-6, -2, -4, -3, -5, -1), range(-6, 0))
    return w.reshape(lead + (4, 4, 2, 2))


def _mpo(params: ParamSet, x, t, deriv=False):
    """The closure [bond] and the site tensors of T(x; t), each a jet [value]
    or [value, d/dx]; arrays of points x and t_j give stacks."""
    kbar, R, k = dressed_blocks(params)
    th, k2 = theta_matrix(params), params.kappa**2

    def jet(f, arg, slope):
        return [f(arg)] + ([np.expand_dims(slope, (-2, -1)) * f.deriv(arg)] if deriv else [])

    # the trace pairs the closure's column with the backward row: bond (c, d)
    # starts at A[d, c]; the right boundary closes it with K_n[c, d]
    closure = [np.swapaxes(th @ a @ th, -1, -2).reshape(a.shape[:-2] + (4,))
               for a in jet(kbar, k2 * x, k2)]
    sites = [_leibniz(_site, jet(R, x / tj, 1 / tj), jet(R, x * tj, tj)) for tj in t]
    sites[-1] = _leibniz(lambda w, kn: (np.moveaxis(w, -3, -1) @ kn.reshape(
        kn.shape[:-2] + (1, 1, 4, 1)))[..., None, :, :, 0], sites[-1], jet(k, x, 1))
    return closure, sites


def transfer_mpo(params: ParamSet, x, t, deriv: bool = False) -> list:
    """The site jets of T(x; t) on the 2^n chain rows, the closure folded into
    the first site, for tensorops.apply_mpo: [T v], or with deriv [T v, dT/dx
    v]; x and the t_j may carry a leading point axis."""
    closure, sites = _mpo(params, x, t, deriv)
    first = _leibniz(lambda c, w: np.einsum("...b,...bcrs->...crs", c, w)[..., None, :, :, :],
                     closure, sites[0])
    return [first] + sites[1:]


def _aux_normalizer(params: ParamSet, x):
    """Scalar Tr(theta K_0(kappa^2 x) theta), which the normalized transfer
    matrix divides by (guarded by numerics.nonvanishing), and its
    x-derivative."""
    kbar = dressed_blocks(params)[0]
    th = theta_matrix(params)
    k2 = params.kappa**2
    g = nonvanishing(list(np.diagonal(th @ kbar(k2 * x) @ th)), params, "Tr(theta K_0(kappa^2) theta)")
    gp = k2 * np.trace(th @ kbar.deriv(k2 * x) @ th)
    return g, gp


def check_transfer(params: ParamSet, samples: int, rng) -> dict:
    """The structural transfer-matrix identities at the samples of rng, all at
    once: the local rows on stacks of blocks, the operator rows on a Gaussian
    block V drawn after the samples.  Two rows are tensorops.Product records
    on V: _double_row's factors against the MPO factor U, the double row with
    the auxiliary leg open in V's rows, and T_x T_y against T_y T_x, the MPO
    factors sliced from one stacked [x, y] pass that also gives max|T_x V|
    and max|T_y V|.  The commuting row is scaled by the norm product max|T_x
    V| max|T_y V| / max|V|, the size of its rounding: at n = 10 a product can
    be 1e-6 of that, and a row scaled by the product failed on rounding
    alone.  The crossing row inverts the diagonal theta (x) theta by its
    reciprocals."""
    n = params.n
    out = {}
    kbar, R, _k = dressed_blocks(params)
    th = theta_matrix(params)
    k = params.kappa
    x, y, *t = np.array([torus_point(rng, n + 2, (0.75, 1.35)) for _ in range(samples)]).T
    v = gaussian_block(rng, 2 ** (n + 1))
    # the auxiliary leg as one more site, whose out bond (c, d) is |c><d|
    u = [[np.eye(4).reshape(1, 4, 2, 2)]] + _mpo(params, x, t)[1]
    out["monodromy form agreement"] = Product(_double_row(params, x, t), [(u, None)], a=v, b=v)
    v = v[: 2**n]  # the chain rows
    xy = transfer_mpo(params, np.concatenate([x, y]), [np.concatenate([tj, tj]) for tj in t])
    nx, ny = _point_max(apply_mpo(xy, v)[0]).reshape(2, samples)
    tx, ty = (([[w[part] for w in jet] for jet in xy], None)
              for part in (slice(samples), slice(samples, None)))
    out["commuting transfer matrices"] = Product([tx, ty], [ty, tx], a=v, b=v, scale=nx * ny / max_abs(v))
    rx = R(x) @ PERMUTE_TWO
    out["transpose flip of r"] = rel_residual(PERMUTE_TWO @ rx @ PERMUTE_TWO, np.swapaxes(rx, -1, -2))
    th2 = np.kron(th, th)
    lhs = (np.diag(1 / th2.diagonal()) @ partial_transpose_leg(R(1 / (k**4 * x)) @ PERMUTE_TWO, 1, 2)
           @ th2 @ partial_transpose_leg(rx, 2, 2))
    out["crossing unitarity"] = rel_residual(lhs, phi_bulk(x, params)[:, None, None] * np.eye(4))
    closure = [(th @ kbar(k**2 * x) @ th, [1]), (R(x**2), [1, 2])]
    out["boundary crossing"] = rel_residual(
        partial_trace_first(factor_product(closure, 2), 2), phi_bdy(x, params)[:, None, None] * kbar(x))
    g1, _ = _aux_normalizer(params, 1.0)
    out["normalized transfer at x=1"] = rel_residual(
        apply_mpo(transfer_mpo(params, 1.0, (1.0,) * n), v)[0] / g1, v)
    return out


def check_transfer_vs_transport(params: ParamSet, samples: int, rng) -> dict:
    """The transfer matrix at x = 1/t_i and x = t_i against the stationary
    transport C along the i-th translation, on a Gaussian block V drawn
    from rng after the samples: T(1/t_i) V against phi(1/t_i) C V, and the
    inverse direction T(t_i) = phi(t_i) C^{-1} in product form, T(t_i) C V
    against phi(t_i) V, as C reaches condition numbers of 1e12 at n = 6.
    That row is scaled by the norm product max|T(t_i) V| max|C V| / max|V|,
    the size of its rounding (by max|phi V| it read 1.2e-9 at n = 6).  C V
    is the cocycle along weyl.tau_word(i, n) at params.replace(q_sqrt=1)
    run through V; T never sees q.  Each i takes two MPO calls, T at 1/t_i
    and t_i on V, then T(t_i) on C V, and copies no block to its points."""
    n = params.n
    out = {}
    stationary = params.replace(q_sqrt=1)
    t = np.array([torus_point(rng, n, (0.8, 1.3)) for _ in range(samples)]).T
    v = gaussian_block(rng, 2**n)
    for i, ti in enumerate(t, 1):
        cv = factor_product(cocycle_factors(stationary, tau_word(i, n), t), n, v)
        at_inv, at_t = np.split(apply_mpo(transfer_mpo(
            params, np.concatenate([1 / ti, ti]), [np.tile(tj, 2) for tj in t]), v)[0], 2)
        out[f"stationary transport at x=1/t_{i}"] = rel_residual(
            at_inv, phi_bdy(1 / ti, params)[:, None, None] * cv)
        scale = _point_max(at_t) * _point_max(cv) / max_abs(v)
        del at_inv, at_t  # so that the next call holds only its own points
        out[f"stationary inverse transport at x=t_{i}"] = rel_residual(apply_mpo(
            transfer_mpo(params, ti, t), cv)[0], phi_bdy(ti, params)[:, None, None] * v, scale=scale)
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
    dj = -kj * boundary_norm(params, j) / _boundary_den(params, j)
    return (k - 1 / k) * dj


def _chain_constant(params: ParamSet):
    k, n = params.kappa, params.n
    total = 0.0 + 0j
    for j in (0, n):
        total += (1 + params.kappa_j(j) ** 2) / _boundary_den(params, j)
    return (k - 1 / k) / 2 * total - (n - 1) / 4 * (k + 1 / k)


def hamiltonian(params: ParamSet, form: str, v=None) -> np.ndarray:
    """The open-chain Hamiltonian on (C^2)^(x n) applied to the block v,
    three ways; v is the identity if None, which gives the dense H.

    form="transfer" differentiates the normalized transfer matrix at x = 1
    near the homogeneous point, from one jet pass of tensorops.apply_mpo;
    form="pauli" is the explicit two-line expression; form="tl" weights the
    diagrammatic generator images.
    """
    n = params.n
    k = params.kappa
    v = np.eye(2**n, dtype=complex) if v is None else v
    if form == "transfer":
        tval, tder = apply_mpo(transfer_mpo(params, 1.0, (1.0,) * n, deriv=True), v)
        g, gp = _aux_normalizer(params, 1.0)
        nval = tval / g
        if rel_residual(nval, v) > 1e-9:
            raise InternalDefectError("normalized transfer is not Id at x=1")
        nder = tder / g - tval * (gp / g**2)
        return (k - 1 / k) / 2 * nder - c0_constant(params) * v
    acc = np.zeros(v.shape, dtype=complex)
    if form == "pauli":
        bulk2 = (
            np.kron(SX, SX)
            + np.kron(SY, SY)
            + (k + 1 / k) / 2 * np.kron(SZ, SZ)
        )
        for i in range(1, n):
            acc += apply_on_legs(bulk2, [i, i + 1], v, n)
        # boundary field sign: the raising/lowering terms carry the sign that
        # the logarithmic-derivative definition produces (the opposite choice
        # is the same operator conjugated by sigma^Z on every site)
        k0, u0, psi0 = params.kappa0, params.upsilon0, params.psi0
        kn, un, psin = params.kappan, params.upsilonn, params.psin
        left = (
            (1 + k0 * u0) * (1 - k0 / u0) * SZ
            - 4 * k0 * (psi0 * SPLUS + SMINUS / psi0)
        ) / _boundary_den(params, 0)
        right = (
            (1 + kn * un) * (1 - kn / un) * SZ
            + 4 * kn * (SPLUS / psin + psin * SMINUS)
        ) / _boundary_den(params, n)
        acc += (
            (k - 1 / k)
            / 2
            * (apply_on_legs(left, [1], v, n) - apply_on_legs(right, [n], v, n))
        )
        return acc / 2 + _chain_constant(params) * v
    if form == "tl":
        rep = build_spin_rep(params)
        for j in range(n + 1):
            block, legs = rep.e[j]
            acc += apply_on_legs(tl_weight(params, j) * block, legs, v, n)
        return acc
    raise InternalDefectError("form must be 'transfer', 'pauli', or 'tl'")

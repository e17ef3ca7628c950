"""Shared fixtures and the acceptance summary hook."""

from types import SimpleNamespace

import numpy as np
import pytest

from heckespin.baxter import RationalMat, dressed_blocks
from heckespin.numerics import rel_residual, sample_generic
from heckespin.tensorops import factor_product
from heckespin.transfer import theta_matrix

_ACCEPTANCE: list = []


def record_acceptance(label: str, passed: bool):
    _ACCEPTANCE.append((label, passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for label, ok in _ACCEPTANCE:
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {label}")


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


@pytest.fixture(scope="session")
def dense_embed():
    """The dense-embedding oracle for local operators on (C^2)^(x m)."""
    return _kron_embed


@pytest.fixture
def params2():
    return sample_generic(seed=1, n=2)


@pytest.fixture
def params3():
    return sample_generic(seed=1, n=3)


@pytest.fixture
def rng():
    return np.random.default_rng(7)

"""Shared fixtures and the acceptance summary hook."""

from types import SimpleNamespace

import numpy as np
import pytest

from heckespin.baxter import RationalMat
from heckespin.numerics import sample_generic

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

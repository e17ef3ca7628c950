"""Shared fixtures and the acceptance summary hook."""

import numpy as np
import pytest

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

"""Local operators on tensor legs against a kron-and-permutation oracle."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckespin.numerics import InternalDefectError, rel_residual
from heckespin.tensorops import (
    Monomial,
    apply_on_legs,
    op_on_legs,
    partial_trace_first,
    partial_transpose_leg,
    row_residual,
)


def _cplx(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@st.composite
def placements(draw):
    """(m, legs, cols, seed): k <= 3 adjacent, increasing legs of m <= 6."""
    m = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(3, m)))
    start = draw(st.integers(1, m - k + 1))
    cols = draw(st.sampled_from([1, 3, 2**m]))
    return m, list(range(start, start + k)), cols, draw(st.integers(0, 2**32 - 1))


@given(placements())
@settings(max_examples=150, deadline=None)
def test_apply_on_legs_matches_the_dense_embedding(dense_embed, case):
    m, legs, cols, seed = case
    rng = np.random.default_rng(seed)
    op = _cplx(rng, 2 ** len(legs), 2 ** len(legs))
    a = _cplx(rng, 2**m, cols)
    want = dense_embed(op, legs, m) @ a
    got = apply_on_legs(op, legs, a, m)
    assert got.shape == a.shape
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize(
    "legs, m",
    [([1, 2], 2), ([3, 4], 4), ([4, 5], 5), ([2, 3], 5), ([3, 4, 5], 5),
     ([4, 5, 6], 6), ([2, 3], 4), ([1, 2, 3], 3), ([3], 3)],
)
def test_op_on_legs_is_the_embedding(dense_embed, legs, m):
    rng = np.random.default_rng(m + 10 * len(legs))
    op = _cplx(rng, 2 ** len(legs), 2 ** len(legs))
    assert np.allclose(op_on_legs(op, legs, m), dense_embed(op, legs, m),
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("legs", [[2, 3], [1, 2]])
def test_apply_on_legs_on_mpmath_object_arrays(legs):
    rng = np.random.default_rng(3)
    op = _cplx(rng, 4, 4)
    a = _cplx(rng, 8, 2)
    with mpmath.workdps(30):
        obj = np.vectorize(mpmath.mpc, otypes=[object])(op)
        got = apply_on_legs(obj, legs, a, 3)
        assert got.dtype == object
        assert np.abs(got.astype(complex) - apply_on_legs(op, legs, a, 3)).max() < 1e-13


@pytest.mark.parametrize(
    "op_dim, legs, rows",
    [(4, [1], 8), (2, [1, 2], 8), (4, [2, 2], 8), (2, [0], 8), (2, [4], 8),
     (4, [1, 2], 6), (1, [], 8), (4, [1, 3], 8), (4, [2, 1], 8), (8, [3, 2, 1], 8)],
)
def test_shape_and_leg_mismatch_is_a_defect(op_dim, legs, rows):
    with pytest.raises(InternalDefectError):
        apply_on_legs(np.eye(op_dim), legs, np.ones((rows, 2)), 3)


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_partial_trace_first(m, seed):
    rng = np.random.default_rng(seed)
    a, b = _cplx(rng, 2, 2), _cplx(rng, 2 ** (m - 1), 2 ** (m - 1))
    assert np.allclose(partial_trace_first(np.kron(a, b), m), np.trace(a) * b)
    mat = _cplx(rng, 2**m, 2**m)
    h = 2 ** (m - 1)
    assert np.array_equal(partial_trace_first(mat, m), mat[:h, :h] + mat[h:, h:])


@given(st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_partial_transpose_leg(m, data):
    leg = data.draw(st.integers(1, m))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # kron products span all matrices, and the partial transpose is linear
    total = np.zeros((2**m, 2**m), dtype=complex)
    want = np.zeros_like(total)
    for _ in range(3):
        factors = [_cplx(rng, 2, 2) for _ in range(m)]
        flipped = [f.T if i == leg - 1 else f for i, f in enumerate(factors)]
        prod, prod_t = np.eye(1), np.eye(1)
        for f, g in zip(factors, flipped):
            prod, prod_t = np.kron(prod, f), np.kron(prod_t, g)
        total += prod
        want += prod_t
    assert np.allclose(partial_transpose_leg(total, leg, m), want, rtol=0, atol=1e-12)
    twice = partial_transpose_leg(partial_transpose_leg(total, leg, m), leg, m)
    assert np.allclose(twice, total)


@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_monomial_products_and_residual_match_dense(m, seed):
    rng = np.random.default_rng(seed)
    dim = 2**m

    def draw():
        return Monomial(rng.integers(0, dim, dim), _cplx(rng, dim))

    a, b = draw(), draw()
    eye = np.eye(dim)
    dense_a, dense_b = eye @ a, eye @ b
    assert np.allclose(eye @ (a @ b), dense_a @ dense_b, rtol=0, atol=1e-12)
    x = _cplx(rng, 3, dim)
    assert np.allclose(x @ a, x @ dense_a, rtol=0, atol=1e-12)
    assert np.array_equal(eye @ (1.5 * a), 1.5 * dense_a)
    # columns that agree in row, and columns that do not
    c = Monomial(np.where(rng.uniform(size=dim) < 0.5, a.index, b.index), _cplx(rng, dim))
    for other in (b, c, a):
        want = rel_residual(dense_a, eye @ other)
        assert a.residual(other) == pytest.approx(want, rel=1e-15, abs=0)
    want = rel_residual(dense_a @ dense_b, 0.5 * (eye @ c))
    assert Monomial.row([a, b], [c], 0.5) == pytest.approx(want, rel=1e-12, abs=0)


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_row_residual_is_the_full_space_residual(dense_embed, m, seed):
    rng = np.random.default_rng(seed)

    def factor():
        k = int(rng.integers(1, 3))
        start = int(rng.integers(1, m - k + 2))
        return _cplx(rng, 2**k, 2**k), list(range(start, start + k))

    lhs, rhs = [factor() for _ in range(3)], [factor() for _ in range(2)]

    def full(side):
        out = np.eye(2**m, dtype=complex)
        for block, legs in side:
            out = out @ dense_embed(block, legs, m)
        return out

    want = rel_residual(full(lhs), 0.5 * full(rhs))
    assert row_residual(lhs, rhs, 0.5) == pytest.approx(want, rel=1e-12)

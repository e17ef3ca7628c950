"""Local operators on tensor legs of (C^2)^(x m).

Basis convention used everywhere: legs are numbered left to right, the
leftmost leg is the most significant bit, spin-up is bit 0.  So for m legs
the basis index of a configuration (b_1, ..., b_m) is sum b_l * 2^(m-l),
matching the order produced by iterated numpy.kron.

A 2^k x 2^k block acting on k adjacent legs of the m, in increasing order,
is applied to an operand directly (apply_on_legs): one batched matmul on the
rows viewed as (legs before, the k legs, legs after).  A product of local
factors is one loop over apply_on_legs (factor_product); the dressed
generators, the cocycle, the transport, the Murphy elements and the
monodromy's factor list run through it.
An identity between two products of local factors is checked on the union
of their legs only (row_residual): both sides are (A - B) (x) Id there, and
max|M (x) Id| = max|M|, so the residual is the one of the full space.  A
monomial operator (one nonzero entry per column, as the diagram generators
in the matching basis) is an (index, weight) pair, products of them are
gathers, and an identity between two such products is checked on the
(index, weight) arrays (Monomial.row).  The full-space embedding is never
formed on a product path; op_on_legs, which returns it, is the same
primitive applied to the identity.  Any scalar type numpy can contract
works, including object arrays of mpmath numbers or of exact fractions.
"""

from __future__ import annotations

import numpy as np

from .numerics import InternalDefectError, max_abs, rel_residual


def apply_on_legs(op: np.ndarray, legs, a: np.ndarray, m: int) -> np.ndarray:
    """embed(op on legs) @ a, without forming the embedding.

    ``op`` must be a 2^k x 2^k matrix with k = len(legs) >= 1; legs are
    1-based, adjacent and increasing, within 1..m.  ``a`` has 2^m rows and
    any number of columns.  A shape or leg mismatch is a defect of the
    calling code.
    """
    legs = list(legs)
    k = len(legs)
    if op.shape != (1 << k, 1 << k) or a.ndim != 2 or a.shape[0] != 1 << m:
        raise InternalDefectError("operator size does not match leg count")
    if not k or not 1 <= legs[0] <= m - k + 1 or legs != list(range(legs[0], legs[0] + k)):
        raise InternalDefectError("legs must be adjacent, increasing and within range")
    return np.matmul(op, a.reshape(1 << (legs[0] - 1), 1 << k, -1)).reshape(a.shape)


def op_on_legs(op: np.ndarray, legs, m: int) -> np.ndarray:
    """The 2^m x 2^m embedding of ``op`` acting on the listed legs."""
    return apply_on_legs(op, legs, np.eye(2**m, dtype=complex), m)


def factor_product(factors, m: int, a=None):
    """F_1 F_2 ... F_k a for the local factors (block, legs) listed left to
    right, on m legs; ``a`` is the identity by default.

    >>> x = np.diag([2.0, 3.0])
    >>> y = np.array([[0.0, 1.0], [5.0, 0.0]])
    >>> bool(np.allclose(factor_product([(x, [1]), (y, [2])], 2), np.kron(x, y)))
    True
    >>> factor_product([(x, [2])], 2, np.ones((4, 1))).ravel().real
    array([2., 3., 2., 3.])
    """
    if a is None:
        exact = any(block.dtype == object for block, _legs in factors)
        a = np.eye(2**m, dtype=object if exact else complex)
    for block, legs in reversed(factors):
        a = apply_on_legs(block, legs, a, m)
    return a


def row_residual(lhs, rhs, coeff=1) -> float:
    """rel_residual of prod(lhs) against coeff * prod(rhs), two products of
    local (block, legs) factors listed left to right, evaluated on the union
    of the legs of both sides renumbered 1..k (max|M (x) Id| = max|M|, so
    this is the residual on the full space).

    >>> x = np.array([[0.0, 1.0], [1.0, 0.0]])
    >>> row_residual([(x, [3]), (x, [5])], [(x, [5]), (x, [3])])
    0.0
    >>> row_residual([(x, [2]), (x, [2])], [], coeff=2)
    0.5
    """
    legs = sorted({leg for _block, ls in lhs + rhs for leg in ls})
    local = {leg: k for k, leg in enumerate(legs, 1)}

    def prod(side):
        return factor_product([(b, [local[l] for l in ls]) for b, ls in side], len(legs))

    right = prod(rhs)
    return rel_residual(prod(lhs), right if coeff == 1 else coeff * right)


class Monomial:
    """The matrix with the single nonzero entry weight[c] in row index[c] of
    each column c.  Products with each other are gathers, a dense matrix on
    the left takes a column gather (a @ M), and a scalar scales the weights.

    >>> m = Monomial(np.array([1, 1]), np.array([2.0, 3.0]))
    >>> dense = np.eye(2) @ m
    >>> dense
    array([[0., 0.],
           [2., 3.]])
    >>> bool((np.eye(2) @ (m @ m) == dense @ dense).all())
    True
    """

    __array_ufunc__ = None  # a dense a @ M defers to __rmatmul__

    def __init__(self, index, weight):
        self.index = np.asarray(index)
        self.weight = np.asarray(weight)

    def __matmul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.index[other.index], self.weight[other.index] * other.weight)

    def __rmatmul__(self, a: np.ndarray) -> np.ndarray:
        return a[:, self.index] * self.weight

    def __rmul__(self, c) -> "Monomial":
        return Monomial(self.index, c * self.weight)

    @staticmethod
    def row(lhs, rhs, coeff=1) -> float:
        """rel_residual of prod(lhs) against coeff * prod(rhs), two
        products of Monomial operators listed left to right."""
        a, b = lhs[0], rhs[0]
        for f in lhs[1:]:
            a = a @ f
        for f in rhs[1:]:
            b = b @ f
        return a.residual(coeff * b)

    def residual(self, other: "Monomial") -> float:
        """rel_residual of the two dense matrices: where a column's entries
        sit in different rows, the difference holds both of them."""
        same = self.index == other.index
        apart = np.concatenate([
            np.where(same, self.weight - other.weight, 0),
            np.where(same, 0, self.weight),
            np.where(same, 0, other.weight),
        ])
        return rel_residual(apart, 0, scale=max(max_abs(self.weight), max_abs(other.weight)))


def kron_all(mats) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def partial_trace_first(mat: np.ndarray, m: int) -> np.ndarray:
    """Trace out the first of m legs of a 2^m x 2^m matrix."""
    t = mat.reshape(2, 2 ** (m - 1), 2, 2 ** (m - 1))
    return np.trace(t, axis1=0, axis2=2)


def partial_transpose_leg(mat: np.ndarray, leg: int, m: int) -> np.ndarray:
    """Transpose a 2^m x 2^m matrix on one leg only (1-based)."""
    t = mat.reshape((2,) * (2 * m))
    a = leg - 1
    t = np.swapaxes(t, a, m + a)
    return t.reshape(2**m, 2**m)


PERMUTE_TWO = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

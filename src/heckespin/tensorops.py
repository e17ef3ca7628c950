"""Local operators on tensor legs of (C^2)^(x m).

Basis convention used everywhere: legs are numbered left to right, the
leftmost leg is the most significant bit, spin-up is bit 0.  So for m legs
the basis index of a configuration (b_1, ..., b_m) is sum b_l * 2^(m-l),
matching the order produced by iterated numpy.kron.

A 2^k x 2^k block acting on k of the m legs is applied to an operand
directly (apply_on_legs): the operand's rows are viewed as m legs of size 2,
the block is contracted against the chosen legs, and the rows are put back.
A product of local factors, with its derivative when the factors carry one,
is one loop over apply_on_legs (factor_product); the dressed generators, the
cocycle, the transport and the double-row transfer matrix all run through it.
The full-space embedding is never formed on a product path; op_on_legs, which
returns it, is the same primitive applied to the identity.  Any scalar type
numpy can contract works, including object arrays of mpmath numbers.
"""

from __future__ import annotations

import numpy as np

from .numerics import InternalDefectError


def apply_on_legs(op: np.ndarray, legs, a: np.ndarray, m: int) -> np.ndarray:
    """embed(op on legs) @ a, without forming the embedding.

    ``op`` must be a 2^k x 2^k matrix with k = len(legs); legs are 1-based
    and pairwise distinct but need not be adjacent or increasing, so the same
    helper places r_{a b} for a > b.  ``a`` has 2^m rows and any number of
    columns.  A shape or leg mismatch is a defect of the calling code.
    """
    legs = list(legs)
    k = len(legs)
    if op.shape != (2**k, 2**k) or a.ndim != 2 or a.shape[0] != 2**m:
        raise InternalDefectError("operator size does not match leg count")
    if not legs or len(set(legs)) != k or min(legs) < 1 or max(legs) > m:
        raise InternalDefectError("legs must be distinct and within range")
    if legs == list(range(legs[0], legs[0] + k)):
        # adjacent legs in increasing order: one batched product, no copies
        return np.matmul(op, a.reshape(2 ** (legs[0] - 1), 2**k, -1)).reshape(a.shape)
    axes = [l - 1 for l in legs]
    t = np.tensordot(
        op.reshape((2,) * (2 * k)),
        a.reshape((2,) * m + (a.shape[1],)),
        axes=(list(range(k, 2 * k)), axes),
    )
    # tensordot put the k output legs first; move them back into place
    return np.moveaxis(t, list(range(k)), axes).reshape(a.shape)


def op_on_legs(op: np.ndarray, legs, m: int) -> np.ndarray:
    """The 2^m x 2^m embedding of ``op`` acting on the listed legs."""
    return apply_on_legs(op, legs, np.eye(2**m, dtype=complex), m)


def factor_product(factors, m: int, a=None):
    """(A a, A' a) for A = F_1 F_2 ... F_k, the local factors listed left to
    right, applied to ``a`` (the identity by default) on m legs.

    A factor is (block, legs) or (block, d block/dx, legs).  The product is
    built from the right, (P, P') <- (F P, F' P + F P'), so the derivative
    rides along by the product rule when the factors carry derivative
    blocks; otherwise the second entry is None.

    >>> x, dx = np.diag([2.0, 3.0]), np.eye(2)
    >>> y, dy = np.array([[0.0, 1.0], [5.0, 0.0]]), np.diag([1.0, -1.0])
    >>> val, der = factor_product([(x, dx, [1]), (y, dy, [2])], 2)
    >>> bool(np.allclose(val, np.kron(x, y)))
    True
    >>> bool(np.allclose(der, np.kron(dx, y) + np.kron(x, dy)))
    True
    >>> factor_product([(x, [2])], 2, np.ones((4, 1)))[0].ravel().real
    array([2., 3., 2., 3.])
    """
    out = np.eye(2**m, dtype=complex) if a is None else a
    dout = None
    if factors and len(factors[0]) == 3 and factors[0][1] is not None:
        dout = np.zeros_like(out)
    for factor in reversed(factors):
        val, legs = factor[0], factor[-1]
        if dout is not None:
            dout = apply_on_legs(val, legs, dout, m)
            dout += apply_on_legs(factor[1], legs, out, m)
        out = apply_on_legs(val, legs, out, m)
    return out, dout


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

"""Local operators on tensor legs of (C^2)^(x m).

Basis convention used everywhere: legs are numbered left to right, the
leftmost leg is the most significant bit, spin-up is bit 0.  So for m legs
the basis index of a configuration (b_1, ..., b_m) is sum b_l * 2^(m-l),
matching the order produced by iterated numpy.kron.

A 2^k x 2^k block acting on k adjacent legs of the m, in increasing order,
is applied to an operand directly (apply_on_legs): one batched matmul on the
rows viewed as (legs before, the k legs, legs after).  A matrix product
operator (MPO) on all m legs, a list of site jets, is applied site by site
(apply_mpo), at most _PASS block entries a pass.  A product of factors, local
(block, legs) or MPO (sites, None), is one loop over the two (factor_product);
the dressed generators, the cocycle, the transport, the Murphy elements, the
monodromy's two sides and the commuting transfer matrices run through it.
A check of an identity between two such products hands back a Product, the
factor lists of both sides, and its report row multiplies them out (evaluate).
Without operands local factors run on the union of their legs only: both
sides are (A - B) (x) Id there, and max|M (x) Id| = max|M|, so the residual
is the one of the full space.  An identity between operators on all m legs
applies both sides to one block of four complex Gaussian vectors per suite
(gaussian_block; Freivalds, IFIP 1977), so no 2^m x 2^m operator is formed;
a dense embedding is factor_product on the identity.  A monomial operator
(one nonzero entry per column, as the diagram generators in the matching
basis) is an (index, weight) pair, products of them are gathers, one applied
to a block is a scatter of its weighted rows (its dense form is that scatter
on the identity), and a Product of them is compared on the (index, weight)
arrays.  Any scalar type numpy can contract works, including object arrays
of mpmath numbers or of exact fractions.

Blocks and operands may carry a leading batch axis, one matrix per sample
point, as the dressed blocks do when evaluated over a stack of spectral
parameters: apply_on_legs, apply_mpo and factor_product then act point by
point (the batch axes broadcast), and a Product's residual is the largest of
the points' own residuals.  An unbatched call is the same code without that axis.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import InternalDefectError
from .numerics import max_abs, rel_residual

_PASS = 2**14  # entries of a block per MPO pass, rows x points x columns


def apply_on_legs(op: np.ndarray, legs, a: np.ndarray, m: int) -> np.ndarray:
    """embed(op on legs) @ a, without forming the embedding.

    ``op`` must be a 2^k x 2^k matrix with k = len(legs) >= 1; legs are
    1-based, adjacent and increasing, within 1..m.  ``a`` has 2^m rows and
    any number of columns.  Either may carry a leading batch axis (a stack
    of matrices, one per point), and the batch axes broadcast: a stack of
    blocks applied to one operand gives one product per block.  A shape or
    leg mismatch is a defect of the calling code.
    """
    legs = list(legs)
    k = len(legs)
    if op.shape[-2:] != (1 << k, 1 << k) or a.ndim < 2 or a.shape[-2] != 1 << m:
        raise InternalDefectError("operator size does not match leg count")
    if not k or not 1 <= legs[0] <= m - k + 1 or legs != list(range(legs[0], legs[0] + k)):
        raise InternalDefectError("legs must be adjacent, increasing and within range")
    after = (1 << (m - legs[0] - k + 1)) * a.shape[-1]
    out = np.matmul(op[..., None, :, :], a.reshape(a.shape[:-2] + (1 << (legs[0] - 1), 1 << k, after)))
    return out.reshape(out.shape[:-3] + a.shape[-2:])


def gaussian_block(rng, rows: int) -> np.ndarray:
    """Four complex Gaussian vectors, row by row from the stream rng (numerics.stream),
    as the columns of a rows x 4 block: Box-Muller's sqrt(-2 log(1 - u)) exp(2 pi i w)
    per entry, of two rng.random() draws.  (A - B) V = 0 for almost no V unless A = B."""
    u = np.fromiter(iter(rng.random, None), float, count=8 * rows).reshape(rows, 4, 2)
    return np.sqrt(-2 * np.log1p(-u[..., 0])) * np.exp(2j * np.pi * u[..., 1])


def _leibniz(op, a, b) -> list:
    """op of two jets, [value] or [value, x-derivative], for a bilinear op:
    the value, and its derivative by the product rule when a carries one."""
    out = [op(a[0], b[0])]
    if len(a) > 1:
        out.append(op(a[1], b[0]) + op(a[0], b[1]) if len(b) > 1 else op(a[1], b[0]))
    return out


def apply_mpo(sites, v) -> list:
    """The MPO of the site jets (in bond 1 first, out bond 1 last) applied
    to the block v, held as [rows done, bond, legs to come and columns]: one
    matmul over (bond, leg) per site leaves its row leg after the rows done.
    A site is [in bond, out bond, row, col], or a stack of them over points.
    Gives [M v], or [M v, dM/dx v] by the product rule.  A pass takes at
    most _PASS entries of v, rows x points x columns, from the point axis
    the sites and v share, each point's products the same in any pass: a
    4-column block takes 64 points at n = 6, 4 at n = 10 and 1 at n = 12,
    where `verify transfer` peaks at 42 and 52 MB (57 and 114 MB unchunked),
    and the identity 16 columns at n = 10 (spectrum table: 6.7 s, 148 MB)."""
    def step(w, a):
        mat = np.moveaxis(w, (-2, -3), (-4, -3))  # [.., row, out, in, col]
        mat = mat.reshape(mat.shape[:-4] + (1, 2 * w.shape[-3], -1))
        a = mat @ a.reshape(a.shape[:-2] + (2 * a.shape[-2], -1))
        return a.reshape(a.shape[:-3] + (2 * a.shape[-3], w.shape[-3], -1))

    lead = np.broadcast_shapes(v.shape[:-2], *(w.shape[:-4] for jet in sites for w in jet))
    rows, cols = v.shape[-2:]
    width = min(cols, max(1, _PASS // rows))
    points = max(1, _PASS // (rows * width))
    out = [np.empty(lead + (rows, cols), np.result_type(v, sites[-1][0])) for _ in sites[-1]]
    for p in range(0, lead[0] if lead else 1, points):
        for c in range(0, cols, width):
            block = (v[p:p + points] if v.ndim > 2 else v)[..., c:c + width]
            a = [block.reshape(block.shape[:-2] + (1, 1, -1))]
            for jet in sites:
                a = _leibniz(step, [w[p:p + points] if w.ndim > 4 else w for w in jet], a)
            for j, o in enumerate(out):  # by index: no name holds a result into the next chunk
                o.reshape(-1, rows, 1, cols)[p:p + points, ..., c:c + width] = a[j]
    return out


def factor_product(factors, m: int, a=None):
    """F_1 F_2 ... F_k a for the factors listed left to right, on m legs:
    local factors (block, legs) and MPO factors (sites, None), the site
    values of apply_mpo on all m legs; ``a`` is the integer identity by
    default, for local factors only, so that the product takes the blocks'
    scalar type.  Blocks stacked over points give the stack of the points'
    products.

    >>> x = np.diag([2.0, 3.0])
    >>> y = np.array([[0.0, 1.0], [5.0, 0.0]])
    >>> bool(np.allclose(factor_product([(x, [1]), (y, [2])], 2), np.kron(x, y)))
    True
    >>> factor_product([(x, [2])], 2, np.ones((4, 1))).ravel().real
    array([2., 3., 2., 3.])
    """
    if a is None:
        a = np.eye(2**m, dtype=int)
    for block, legs in reversed(factors):
        a = apply_mpo(block, a)[0] if legs is None else apply_on_legs(block, legs, a, m)
    return a


class Product(NamedTuple):
    """The identity prod(lhs) a = coeff prod(rhs) b, each side's factors
    listed left to right: (block, legs) pairs and (sites, None) MPO factors
    on the m legs of the operands' 2^m rows or, with no operands and no MPO
    factor, (block, legs) pairs on the union of the legs of both sides; or
    Monomials, with no operands.  scale, if given, is the residual's
    denominator (numerics.rel_residual)."""

    lhs: list
    rhs: list
    coeff: complex = 1
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    scale: np.ndarray | float | None = None


def evaluate(value) -> float:
    """The residual a check reads off its value: a number as it stands, the
    rel_residual of a Product's two sides (the largest of the points' own
    over stacked blocks), or the largest over a tuple of values, NaN if any
    is NaN and 0.0 for none.  Two Monomial products are compared as dense
    matrices on their (index, weight) arrays: where a column's entries sit
    in different rows, the difference holds both.

    >>> x = np.array([[0.0, 1.0], [1.0, 0.0]])
    >>> evaluate((Product([(x, [3]), (x, [5])], [(x, [5]), (x, [3])]), 0.25))
    0.25
    >>> evaluate(Product([(x, [2]), (x, [2])], [], coeff=2))
    0.5
    """
    if not isinstance(value, Product):
        return float(np.max([evaluate(v) for v in value], initial=0.0) if isinstance(value, tuple) else value)
    lhs, rhs, coeff, a, b, scale = value
    if isinstance(lhs[0], Monomial):
        left, right = (functools.reduce(Monomial.__matmul__, side) for side in (lhs, rhs))
        same, weight = left.index == right.index, coeff * right.weight
        apart = np.concatenate([np.where(same, left.weight - weight, 0),
                                np.where(same, 0, left.weight), np.where(same, 0, weight)])
        return rel_residual(apart, 0, scale=max(max_abs(left.weight), max_abs(weight)))
    if a is None:  # the legs of both sides, renumbered 1..m
        local = {leg: k for k, leg in enumerate(sorted({l for _b, ls in [*lhs, *rhs] for l in ls}), 1)}
        lhs, rhs = ([(block, [local[l] for l in ls]) for block, ls in side] for side in (lhs, rhs))
    m = len(local) if a is None else a.shape[-2].bit_length() - 1
    left, right = factor_product(lhs, m, a), factor_product(rhs, m, b)
    return rel_residual(left, right if coeff == 1 else coeff * right, scale=scale)


class Monomial:
    """The matrix with the single nonzero entry weight[c] in row index[c] of
    each column c.  Products with each other are gathers, one applied to a
    block of rows (M @ V) scatters row c of V, times weight[c], into row
    index[c], and a scalar scales the weights.

    >>> m = Monomial(np.array([1, 1]), np.array([2.0, 3.0]))
    >>> dense = m @ np.eye(2)
    >>> dense
    array([[0., 0.],
           [2., 3.]])
    >>> bool(((m @ m) @ np.eye(2) == dense @ dense).all())
    True
    """

    __array_ufunc__ = None  # a dense a @ M is a TypeError, not an object array

    def __init__(self, index, weight):
        self.index = np.asarray(index)
        self.weight = np.asarray(weight)

    def __matmul__(self, other):
        if isinstance(other, Monomial):
            return Monomial(self.index[other.index], self.weight[other.index] * other.weight)
        out = np.zeros((len(self.index),) + other.shape[1:], dtype=np.result_type(self.weight, other))
        np.add.at(out, self.index, self.weight[:, None] * other)
        return out

    def __rmul__(self, c) -> "Monomial":
        return Monomial(self.index, c * self.weight)


def partial_trace_first(mat: np.ndarray, m: int) -> np.ndarray:
    """Trace out the first of m legs of a 2^m x 2^m matrix (or a stack)."""
    t = mat.reshape(mat.shape[:-2] + (2, 2 ** (m - 1), 2, 2 ** (m - 1)))
    return np.trace(t, axis1=-4, axis2=-2)


def partial_transpose_leg(mat: np.ndarray, leg: int, m: int) -> np.ndarray:
    """Transpose a 2^m x 2^m matrix (or a stack) on one leg only (1-based)."""
    a = mat.ndim - 2 + leg - 1
    t = np.swapaxes(mat.reshape(mat.shape[:-2] + (2,) * (2 * m)), a, a + m)
    return t.reshape(mat.shape)


PERMUTE_TWO = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])

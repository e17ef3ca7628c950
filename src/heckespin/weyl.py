"""The affine Weyl group of two-boundary type and its two actions.

Elements are pairs (u, lam) with u a signed permutation (the finite part)
and lam an integer translation vector, composed as u o tau(lam).  The group
is generated by s_0, ..., s_n acting on R^n by

    s_0: x -> (1 - x_1, x_2, ..., x_n)
    s_i: x -> x with x_i, x_{i+1} exchanged        (1 <= i <= n-1)
    s_n: x -> (x_1, ..., x_{n-1}, -x_n)

and on the torus (C*)^n by the q-deformed counterpart (act_point below),
where s_0 sends t_1 to q/t_1 and tau(mu) multiplies by q^mu.

Reduced words come from a greedy descent walk of the point
X = (n, n - 1, ..., 1) / (2n + 2) of the fundamental alcove
{1/2 > x_1 > ... > x_n > 0}, in integers; the walk always takes the smallest
descent, which makes every emitted word the lexicographically smallest
reduced word of its element.  min_coset_reps gives those words for the
minimal representatives of W_0 / S_n, read off their sign vectors.

>>> s0 = WeylElem.generator(0, 2)
>>> s1 = WeylElem.generator(1, 2)
>>> (s0 * s1 * s0 * s1) == (s1 * s0 * s1 * s0)
True
>>> tau1 = WeylElem.from_word([0, 1, 2, 1], 2)
>>> tau1.trans
(1, 0)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import InternalDefectError
from .numerics import ParamSet


def _compose_signed(pu, su, pv, sv):
    """Signed permutation composition (u o v) in image convention.

    u maps e_j to su[pu[j]] e_{pu[j]}; signs are indexed by the target slot,
    so u o v carries the sign su[pu[i]] sv[i] into slot pu[i].
    """
    signs = [1] * len(pu)
    for i, k in enumerate(pu):
        signs[k] = su[k] * sv[i]
    return tuple(pu[j] for j in pv), tuple(signs)


@dataclass(frozen=True)
class WeylElem:
    """One element u o tau(trans); perm[j] is the 0-based image of slot j,
    signs are indexed by the target slot, trans is the translation part."""

    perm: tuple
    signs: tuple
    trans: tuple

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, n: int) -> "WeylElem":
        return cls(tuple(range(n)), (1,) * n, (0,) * n)

    @classmethod
    def generator(cls, i: int, n: int) -> "WeylElem":
        """The simple reflection s_i, 0 <= i <= n."""
        if i == 0:
            signs = (-1,) + (1,) * (n - 1)
            return cls(tuple(range(n)), signs, (-1,) + (0,) * (n - 1))
        if i == n:
            return cls(tuple(range(n)), (1,) * (n - 1) + (-1,), (0,) * n)
        if 0 < i < n:
            perm = list(range(n))
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
            return cls(tuple(perm), (1,) * n, (0,) * n)
        raise ValueError(f"generator index {i} out of range for n={n}")

    def linear_apply(self, x):
        """The finite part acting linearly (translation ignored)."""
        out = [0] * self.n
        for j in range(self.n):
            out[self.perm[j]] = self.signs[self.perm[j]] * x[j]
        return tuple(out)

    def __mul__(self, other: "WeylElem") -> "WeylElem":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        # (u, a)(v, b) = (uv, v^{-1}(a) + b)
        perm, signs = _compose_signed(self.perm, self.signs, other.perm, other.signs)
        a = other.inverse_finite().linear_apply(self.trans)
        trans = tuple(x + y for x, y in zip(a, other.trans))
        return WeylElem(perm, signs, trans)

    def inverse_finite(self) -> "WeylElem":
        inv_perm = [0] * self.n
        for j in range(self.n):
            inv_perm[self.perm[j]] = j
        # signs of the inverse live on the source slots of the original
        inv_signs = tuple(self.signs[self.perm[i]] for i in range(self.n))
        return WeylElem(tuple(inv_perm), inv_signs, (0,) * self.n)

    @classmethod
    def from_word(cls, letters, n: int) -> "WeylElem":
        out = cls.identity(n)
        for a in letters:
            out = out * cls.generator(a, n)
        return out


def act_point(w: WeylElem, point, params: ParamSet):
    """The q-deformed action on (C*)^n.

    tau(mu) multiplies by q^mu, the finite part permutes coordinates and
    inverts those with negative sign.

    >>> import numpy as np
    >>> from .numerics import sample_generic
    >>> p = sample_generic(1, 2)
    >>> t = (0.3 + 0.1j, 1.2 - 0.4j)
    >>> s0t = act_point(WeylElem.generator(0, 2), t, p)
    >>> abs(s0t[0] - p.q / t[0]) < 1e-14 and s0t[1] == t[1]
    True
    """
    q = params.q
    shifted = [q**m * t for m, t in zip(w.trans, point)]
    out = [0j] * w.n
    for j in range(w.n):
        i = w.perm[j]
        out[i] = shifted[j] if w.signs[i] == 1 else 1 / shifted[j]
    return tuple(out)


def reduced_word(w: WeylElem):
    """Lexicographically smallest reduced word of w as a list of indices.

    The affine group acts simply transitively on alcoves, so the word is the
    walk from w(X) back to X, each step across the wall of the smallest
    descent: s_0 if x_1 > 1/2, else the first s_a with x_a < x_{a+1}, else
    s_n if x_n < 0.  Coordinates are kept as integers, scaled by d = 2n + 2.

    >>> reduced_word(WeylElem.from_word([1, 0, 1], 1))
    [1, 0, 1]
    >>> reduced_word(WeylElem.from_word([0, 1, 1, 2], 2))
    [0, 2]
    """
    n, d = w.n, 2 * w.n + 2
    home = list(range(n, 0, -1))
    x = list(w.linear_apply([h + d * t for h, t in zip(home, w.trans)]))
    letters = []
    while x != home:
        if 2 * x[0] > d:
            a, x[0] = 0, d - x[0]
        else:
            a = next((a for a in range(1, n) if x[a - 1] < x[a]), n)
            if a < n:
                x[a - 1], x[a] = x[a], x[a - 1]
            elif x[-1] < 0:
                x[-1] = -x[-1]
            else:
                raise InternalDefectError("non-identity element with empty descent set")
        letters.append(a)
        if len(letters) > 10_000:
            raise InternalDefectError("descent walk failed to terminate")
    return letters


def min_coset_reps(n: int):
    """Reduced words of the minimal-length representatives of W_0 / S_n.

    Sorted by (length, word); the last is w_0^J = w_0 w_{0,J} with
    J = {1, ..., n-1}, the unique longest one (Bjorner & Brenti, section 2.4
    and chapter 8).  The coset w S_n is the sign vector eps = w(1, ..., 1),
    and its representative has length the sum of n + 1 - j over eps_j = -1.
    For w != 1 its smallest left descent a is the first a < n with eps_a =
    -1 < eps_{a+1}, or else n, and s_a w represents s_a eps, so the word of w is
    (a,) followed by the word of s_a eps: the word reduced_word(w) gives.

    >>> min_coset_reps(2)
    [(), (2,), (1, 2), (2, 1, 2)]
    """
    def length(eps):
        return sum(n + 1 - j for j, e in enumerate(eps, 1) if e < 0)

    cosets = sorted(itertools.product((1, -1), repeat=n), key=length)
    words = {cosets[0]: ()}
    for eps in cosets[1:]:
        a = next((a for a in range(1, n) if eps[a - 1] < eps[a]), n)
        shorter = eps[:a - 1] + (1, -1) + eps[a + 1:] if a < n else eps[:-1] + (1,)
        words[eps] = (a,) + words[shorter]
    return sorted(words.values(), key=lambda word: (len(word), word))


def tau_word(i: int, n: int):
    """Letters of the standard word for the translation tau_i.

    >>> tau_word(1, 2), tau_word(2, 2)
    ([0, 1, 2, 1], [1, 0, 1, 2])
    """
    if not 1 <= i <= n:
        raise InternalDefectError(f"translation index {i} out of range for n={n}")
    return (
        list(range(i - 1, 0, -1))
        + [0]
        + list(range(1, n))
        + [n]
        + list(range(n - 1, i - 1, -1))
    )


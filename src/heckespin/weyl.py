"""The affine Weyl group of two-boundary type, used through its words.

A word is a sequence of letters 0..n, the simple reflections s_0, ..., s_n,
and spells the element s_{a_1} ... s_{a_k}.  The group acts on R^n by

    s_0: x -> (1 - x_1, x_2, ..., x_n)
    s_i: x -> x with x_i, x_{i+1} exchanged        (1 <= i <= n-1)
    s_n: x -> (x_1, ..., x_{n-1}, -x_n)

and on the torus (C*)^n by the q-deformed counterpart (act_letter below),
where s_0 sends t_1 to q/t_1 and s_n inverts t_n.

The group acts simply transitively on alcoves, so an element is its image
w(X) of X = (n, ..., 1) / (2n + 2) in the fundamental alcove {1/2 > x_1 >
... > x_n > 0}, kept in integers scaled by d = 2n + 2 (WeylElem).
reduced_word walks that point back to X by smallest descents, which emits
the lexicographically smallest reduced word; min_coset_reps gives the words
of the minimal representatives of W_0 / S_n from their sign vectors.

>>> reduced_word([0, 1, 0, 1, 0, 1, 0, 1], 2)  # the braid relation (s_0 s_1)^4 = 1
[]
>>> reduced_word([0, 1, 1, 2], 2)
[0, 2]
>>> WeylElem.from_word(tau_word(1, 2), 2)  # tau_1 moves X by d e_1
(8, 1)
"""

from __future__ import annotations

import itertools

from . import InternalDefectError
from .numerics import ParamSet


def _reflect(a: int, x: list, d: int):
    """s_a on the integer point x in place, coordinates scaled by d: s_0 sends
    x_1 to d - x_1, s_i swaps x_i and x_{i+1}, s_n negates x_n."""
    n = len(x)
    if a == 0:
        x[0] = d - x[0]
    elif 0 < a < n:
        x[a - 1], x[a] = x[a], x[a - 1]
    elif a == n:
        x[-1] = -x[-1]
    else:
        raise ValueError(f"generator index {a} out of range for n={n}")


class WeylElem(tuple):
    """An element w as its integer point w(X), X = (n, ..., 1) scaled by
    d = 2n + 2, moved by a word's letters right to left: two words spell the
    same element exactly when their points are equal.  perfbench/tracejob.py
    times this class by name."""

    @classmethod
    def from_word(cls, word, n: int) -> "WeylElem":
        x = list(range(n, 0, -1))
        for a in reversed(word):
            _reflect(a, x, 2 * n + 2)
        return cls(x)


def act_letter(a: int, point, params: ParamSet):
    """s_a on (C*)^n: s_0 sends t_1 to q/t_1, s_i swaps t_i and t_{i+1} and
    s_n inverts t_n.  The coordinates may be scalars or arrays of points.

    >>> from .numerics import generic_draws
    >>> p, t = next(generic_draws(1, 2)), (0.3 + 0.1j, 1.2 - 0.4j)
    >>> s0t = act_letter(0, t, p)
    >>> abs(s0t[0] - p.q / t[0]) < 1e-14 and s0t[1] == t[1]
    True
    """
    t, n = list(point), len(point)
    if a == 0:
        t[0] = 1 / (params.q**-1 * t[0])
    elif 0 < a < n:
        t[a - 1], t[a] = t[a], t[a - 1]
    elif a == n:
        t[-1] = 1 / t[-1]
    else:
        raise ValueError(f"generator index {a} out of range for n={n}")
    return tuple(t)


def act_word(word, point, params: ParamSet):
    """The element a word spells, acting on (C*)^n: its letters applied to
    point from right to left."""
    for a in reversed(word):
        point = act_letter(a, point, params)
    return tuple(point)


def reduced_word(word, n: int) -> list:
    """Lexicographically smallest reduced word of the element a word spells.

    The walk goes from the element's point w(X) back to X, each step across
    the wall of the smallest descent: s_0 if x_1 > 1/2, else the first s_a
    with x_a < x_{a+1}, else s_n if x_n < 0.  Each step shortens the element
    by one, so the walk takes no more steps than the word has letters.

    >>> reduced_word([1, 0, 1], 1)
    [1, 0, 1]
    >>> reduced_word([2, 1, 2, 1], 2)
    [1, 2, 1, 2]
    """
    d, home = 2 * n + 2, list(range(n, 0, -1))
    x, letters = list(WeylElem.from_word(word, n)), []
    while x != home:
        if len(letters) == len(word):
            raise InternalDefectError(f"descent walk of {word} failed to terminate")
        a = 0 if 2 * x[0] > d else next((a for a in range(1, n) if x[a - 1] < x[a]), n)
        _reflect(a, x, d)
        letters.append(a)
    return letters


def min_coset_reps(n: int):
    """Reduced words of the minimal-length representatives of W_0 / S_n.

    Sorted by (length, word); the last is w_0^J = w_0 w_{0,J} with
    J = {1, ..., n-1}, the unique longest one (Bjorner & Brenti, section 2.4
    and chapter 8).  The coset w S_n is the sign vector eps = w(1, ..., 1),
    the finite part of the home point, and its representative has length the
    sum of n + 1 - j over eps_j = -1.  For w != 1 its smallest left descent
    a is the walk's: the first a < n with eps_a = -1 < eps_{a+1}, or else n.
    s_a w represents s_a eps (a step of the walk that, as a >= 1, never reads
    d), so the word of w is (a,) followed by the word of s_a eps: the word
    reduced_word gives.

    >>> min_coset_reps(2)
    [(), (2,), (1, 2), (2, 1, 2)]
    """
    def length(eps):
        return sum(n + 1 - j for j, e in enumerate(eps, 1) if e < 0)

    cosets = sorted(itertools.product((1, -1), repeat=n), key=length)
    words = {cosets[0]: ()}
    for eps in cosets[1:]:
        a = next((a for a in range(1, n) if eps[a - 1] < eps[a]), n)
        _reflect(a, shorter := list(eps), 0)
        words[eps] = (a,) + words[tuple(shorter)]
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

"""Signed-permutation-with-translation group: composition, reduced words,
coset representatives, and the point action."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bfs_levels, finite_group
from heckespin.numerics import sample_generic
from heckespin.weyl import (
    WeylElem,
    act_point,
    min_coset_reps,
    reduced_word,
    tau_word,
)

N = 3
words = st.lists(st.integers(0, N), max_size=8)


def elem(word, n=N):
    return functools.reduce(
        lambda w, a: w * WeylElem.generator(a, n), word, WeylElem.identity(n)
    )


@given(words, words)
@settings(max_examples=80, deadline=None)
def test_composition_is_associative_via_words(u, v):
    assert elem(u) * elem(v) == elem(u + v)


@given(words)
@settings(max_examples=80, deadline=None)
def test_reduced_word_reproduces_the_element(word):
    w = elem(word)
    assert elem(reduced_word(w)) == w
    assert len(reduced_word(w)) <= len(word)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reduced_word_is_the_first_word_of_a_lexicographic_search(n):
    # oracle: level k + 1 extends each word of level k by the letters 0..n
    # in order, so an element is first reached along its lexicographically
    # smallest reduced word; levels 0..8 are checked
    level = {WeylElem.identity(n): []}
    seen = set(level)
    for _ in range(9):
        for w, word in level.items():
            assert reduced_word(w) == word
        nxt = {}
        for w, word in level.items():
            for a in range(n + 1):
                v = w * WeylElem.generator(a, n)
                if v not in seen:
                    seen.add(v)
                    nxt[v] = word + [a]
        level = nxt


@given(words, words)
@settings(max_examples=40, deadline=None)
def test_point_action_is_a_left_action(u, v):
    params = sample_generic(seed=2, n=N)
    t = (0.9 + 0.2j, 1.1 - 0.1j, 0.8 + 0.4j)
    lhs = act_point(elem(u) * elem(v), t, params)
    rhs = act_point(elem(u), act_point(elem(v), t, params), params)
    assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-10


def test_simple_reflections_are_involutions():
    for j in range(N + 1):
        s = WeylElem.generator(j, N)
        assert s * s == WeylElem.identity(N)
    assert repr(WeylElem.generator(0, 2)) == "WeylElem(perm=(0, 1), signs=(-1, 1), trans=(-1, 0))"


def test_finite_group_order():
    assert len(finite_group(2)) == 8  # 2^2 * 2!
    assert len(finite_group(3)) == 48


def test_longest_element_is_central():
    grp = finite_group(2)
    w0 = max(grp, key=lambda w: len(reduced_word(w)))
    assert all(w0 * g == g * w0 for g in grp)
    assert len(reduced_word(w0)) == 4  # n^2


@pytest.mark.parametrize("n", [2, 3])
def test_min_coset_reps_count_and_minimality(n):
    reps = [WeylElem.from_word(word, n) for word in min_coset_reps(n)]
    assert len(reps) == 2**n
    lengths = [len(reduced_word(w)) for w in reps]
    assert lengths == sorted(lengths)
    # no representative admits a shorter word ending in a parabolic letter
    for w in reps:
        for i in range(1, n):
            assert len(reduced_word(w * WeylElem.generator(i, n))) > len(
                reduced_word(w)
            )


@functools.lru_cache(maxsize=None)
def _words(n):
    """Every element of W_0 with its reduced word, keyed by finite part."""
    return {(w.perm, w.signs): (w, reduced_word(w)) for w in finite_group(n)}


def _brute_coset_reps(n):
    """Filter all of W_0: every s_i, 1 <= i < n, must lengthen w on the right."""
    words = _words(n)

    def lengthens(w, i):
        v = w * WeylElem.generator(i, n)
        return len(words[(v.perm, v.signs)][1]) > len(words[(w.perm, w.signs)][1])

    reps = [(len(word), word, w) for w, word in words.values()
            if all(lengthens(w, i) for i in range(1, n))]
    return [w for _, _, w in sorted(reps, key=lambda r: r[:2])]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coset_constructions_match_the_whole_group_oracle(n):
    w0 = max(_words(n).values(), key=lambda p: len(p[1]))[0]
    reps = [WeylElem.from_word(word, n) for word in min_coset_reps(n)]
    assert reps == _brute_coset_reps(n)
    # S_n is the set of elements spelled in 1..n-1 alone; the last
    # representative times its longest element is w_0
    parabolic = [(len(word), w) for w, word in _words(n).values() if n not in word]
    assert reps[-1] * max(parabolic, key=lambda p: p[0])[1] == w0


@pytest.mark.parametrize("n", range(1, 10))
def test_min_coset_reps_match_the_orbit_search(n):
    """The closed form against the breadth-first search for the W_0-orbit of
    (1, ..., 1): the same elements in the same order, each word the
    reduced_word of its element."""
    levels = bfs_levels(n, key=lambda w: w.linear_apply((1,) * n))
    oracle = sorted(((tuple(reduced_word(w)), w) for level in levels for w in level),
                    key=lambda p: (len(p[0]), p[0]))
    words = min_coset_reps(n)
    assert words == [word for word, _ in oracle]
    assert [WeylElem.from_word(word, n) for word in words] == [w for _, w in oracle]


@pytest.mark.parametrize("n", [7, 8, 10, 12])
def test_min_coset_reps_reach_ranks_past_the_group_enumeration(n):
    reps = min_coset_reps(n)
    assert len(reps) == 2**n
    # each word is its first letter times an earlier word
    elems = {(): WeylElem.identity(n)}
    for word in reps[1:]:
        elems[word] = WeylElem.generator(word[0], n) * elems[word[1:]]
    # w(1, ..., 1) = w.signs: every coset w S_n appears once
    assert len({w.signs for w in elems.values()}) == 2**n
    assert len(reduced_word(elems[reps[-1]])) == n * (n + 1) // 2


def test_w0_coset_element_is_the_longest_representative():
    n = 3
    words = min_coset_reps(n)
    cand = WeylElem.from_word(words[-1], n)
    lengths = [len(word) for word in words]
    assert lengths[-1] == max(lengths) and lengths.count(max(lengths)) == 1
    # composing with the parabolic longest element gives the full longest one
    grp = finite_group(n)
    w0 = max(grp, key=lambda w: len(reduced_word(w)))
    parabolic = [w for w in grp if set(reduced_word(w)) <= set(range(1, n))]
    w0j_small = max(parabolic, key=lambda w: len(reduced_word(w)))
    assert cand * w0j_small == w0


@pytest.mark.parametrize("i,n", [(1, 2), (2, 2), (1, 3), (3, 3)])
def test_tau_word_shifts_one_coordinate(i, n):
    params = sample_generic(seed=4, n=n)
    w = WeylElem.from_word(tau_word(i, n), n)
    assert reduced_word(w) == tau_word(i, n)
    t = tuple(0.8 + 0.1j * k for k in range(1, n + 1))
    moved = act_point(w, t, params)
    q = params.q
    for k in range(n):
        expect = t[k] * q if k == i - 1 else t[k]
        assert abs(moved[k] - expect) < 1e-12


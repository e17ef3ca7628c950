"""Signed-permutation-with-translation group: composition, reduced words,
coset representatives, and the point action."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_group
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
    reps = min_coset_reps(range(1, n), n)
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


def _brute_coset_reps(I, n):
    """Filter all of W_0: every s_i, i in I, must lengthen w on the right."""
    words = _words(n)

    def lengthens(w, i):
        v = w * WeylElem.generator(i, n)
        return len(words[(v.perm, v.signs)][1]) > len(words[(w.perm, w.signs)][1])

    reps = [(len(word), word, w) for w, word in words.values()
            if all(lengthens(w, i) for i in I)]
    return [w for _, _, w in sorted(reps, key=lambda r: r[:2])]


def _subsets(n):
    for r in range(n + 1):
        yield from itertools.combinations(range(1, n + 1), r)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coset_constructions_match_the_whole_group_oracle(n):
    w0 = max(_words(n).values(), key=lambda p: len(p[1]))[0]
    for I in _subsets(n):
        reps = min_coset_reps(I, n)
        assert reps == _brute_coset_reps(I, n)
        # the parabolic subgroup is the set of elements spelled in I alone;
        # the last representative times its longest element is w_0
        parabolic = [(len(word), w) for w, word in _words(n).values()
                     if set(word) <= set(I)]
        assert reps[-1] * max(parabolic, key=lambda p: p[0])[1] == w0


@pytest.mark.parametrize("n", [7, 8])
def test_min_coset_reps_reach_ranks_past_the_group_enumeration(n):
    reps = min_coset_reps(range(1, n), n)
    assert len(reps) == 2**n
    assert len({(w.perm, w.signs) for w in reps}) == 2**n
    assert len(reduced_word(reps[-1])) == n * (n + 1) // 2


def test_min_coset_reps_refuses_indices_outside_the_finite_group():
    with pytest.raises(ValueError):
        min_coset_reps([0], 3)
    with pytest.raises(ValueError):
        min_coset_reps([4], 3)


def test_w0_coset_element_is_the_longest_representative():
    n = 3
    jset = range(1, n)
    reps = min_coset_reps(jset, n)
    cand = reps[-1]
    lengths = [len(reduced_word(w)) for w in reps]
    assert lengths[-1] == max(lengths) and lengths.count(max(lengths)) == 1
    # composing with the parabolic longest element gives the full longest one
    grp = finite_group(n)
    w0 = max(grp, key=lambda w: len(reduced_word(w)))
    parabolic = [w for w in grp if set(reduced_word(w)) <= set(jset)]
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


"""Words of the affine Weyl group: reduced words, the integer point of an
element, the torus action and the coset representatives, against the
signed-permutation-with-translation oracle of conftest."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WeylElem, act_point, bfs_levels, finite_group, sample_generic
from heckespin import weyl
from heckespin.numerics import stream, torus_point
from heckespin.weyl import (
    act_letter,
    act_word,
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
    reduced = reduced_word(word, N)
    assert elem(reduced) == elem(word)
    assert len(reduced) <= len(word)
    assert reduced_word(reduced, N) == reduced
    assert reduced_word(word + word[::-1], N) == []


@given(words, words)
@settings(max_examples=80, deadline=None)
def test_points_are_equal_exactly_when_the_elements_are(u, v):
    """The integer point w(X) of heckespin.weyl.WeylElem tells elements apart
    exactly as the oracle's signed permutation and translation do."""
    same = weyl.WeylElem.from_word(u, N) == weyl.WeylElem.from_word(v, N)
    assert same == (elem(u) == elem(v))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reduced_word_is_the_first_word_of_a_lexicographic_search(n):
    # oracle: level k + 1 extends each word of level k by the letters 0..n
    # in order, so an element is first reached along its lexicographically
    # smallest reduced word; every word of length <= 9 built this way must
    # reduce to the first word of its element
    level = {WeylElem.identity(n): []}
    first = dict(level)
    for _ in range(9):
        nxt = {}
        for w, word in level.items():
            assert reduced_word(word, n) == word
            for a in range(n + 1):
                v = w * WeylElem.generator(a, n)
                if v not in first:
                    first[v] = nxt[v] = word + [a]
                assert reduced_word(word + [a], n) == first[v]
        level = nxt


@given(words, words)
@settings(max_examples=40, deadline=None)
def test_point_action_is_a_left_action(u, v):
    params = sample_generic(seed=2, n=N)
    t = (0.9 + 0.2j, 1.1 - 0.1j, 0.8 + 0.4j)
    lhs = act_point(elem(u) * elem(v), t, params)
    rhs = act_point(elem(u), act_point(elem(v), t, params), params)
    assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-10


def _letter_mismatches(step, n):
    """The letters j whose step(j, t, p) is not bitwise the oracle's
    act_point(s_j, t, p), at 8 torus points one at a time (complex scalars)
    and stacked as arrays of points."""
    p = sample_generic(seed=n, n=n)
    rng = stream(n)
    points = [torus_point(rng, n, (0.7, 1.4)) for _ in range(8)]
    stacked = tuple(np.array(points, dtype=complex).T)
    out = set()
    for j in range(n + 1):
        want = act_point(WeylElem.generator(j, n), stacked, p)
        got = step(j, stacked, p)
        if not all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want)):
            out.add(j)
        for t in points:
            bits = [[(type(c), c.real.hex(), c.imag.hex()) for c in u]
                    for u in (step(j, t, p), act_point(WeylElem.generator(j, n), t, p))]
            if bits[0] != bits[1]:
                out.add(j)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_act_letter_is_the_oracle_generator_bitwise(n):
    """act_letter reproduces the oracle's arithmetic bit for bit, so the
    points the cocycle and the qKZ rows are evaluated at did not move; a
    planted s_0 step, wrong (q t_1) or merely rounded differently (q / t_1),
    is caught."""
    assert _letter_mismatches(act_letter, n) == set()

    def planted(s0):
        return lambda j, t, p: (s0(p.q, t[0]), *t[1:]) if j == 0 else act_letter(j, t, p)

    assert _letter_mismatches(planted(lambda q, t1: q * t1), n) == {0}
    assert _letter_mismatches(planted(lambda q, t1: q / t1), n) == {0}


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_act_word_matches_the_oracle(data):
    n = data.draw(st.integers(1, 4))
    word = data.draw(st.lists(st.integers(0, n), max_size=10))
    p = sample_generic(seed=n, n=n)
    t = torus_point(stream(len(word)), n, (0.7, 1.4))
    got = np.array(act_word(word, t, p))
    want = np.array(act_point(WeylElem.from_word(word, n), t, p))
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_a_letter_past_the_boundary_raises():
    """A letter outside 0..n is a ValueError, which the CLI reports as an
    internal defect (exit 3)."""
    n, p = 2, sample_generic(seed=1, n=2)
    t = (0.9 + 0.2j, 1.1 - 0.3j)
    for bad in (n + 1, -1):
        message = f"generator index {bad} out of range for n={n}"
        for call in (lambda: reduced_word([bad], n), lambda: act_letter(bad, t, p),
                     lambda: act_word([0, bad], t, p)):
            with pytest.raises(ValueError, match=message):
                call()


def test_simple_reflections_are_involutions():
    for j in range(N + 1):
        s = WeylElem.generator(j, N)
        assert s * s == WeylElem.identity(N)
        assert reduced_word([j, j], N) == []
        assert weyl.WeylElem.from_word([j, j], N) == weyl.WeylElem.from_word([], N)
    assert repr(WeylElem.generator(0, 2)) == "WeylElem(perm=(0, 1), signs=(-1, 1), trans=(-1, 0))"


def test_finite_group_order():
    assert len(finite_group(2)) == 8  # 2^2 * 2!
    assert len(finite_group(3)) == 48
    # the breadth-first words are reduced: reduced_word keeps their length
    assert all(len(reduced_word(word, 3)) == len(word) for _, word in finite_group(3))


def test_longest_element_is_central():
    grp = finite_group(2)
    w0, word0 = max(grp, key=lambda pair: len(reduced_word(pair[1], 2)))
    assert all(w0 * g == g * w0 for g, _ in grp)
    assert len(reduced_word(word0, 2)) == 4  # n^2


@pytest.mark.parametrize("n", [2, 3])
def test_min_coset_reps_count_and_minimality(n):
    reps = min_coset_reps(n)
    assert len(reps) == 2**n
    lengths = [len(reduced_word(word, n)) for word in reps]
    assert lengths == sorted(lengths) == [len(word) for word in reps]
    # no representative admits a shorter word ending in a parabolic letter
    for word in reps:
        for i in range(1, n):
            assert len(reduced_word(word + (i,), n)) > len(reduced_word(word, n))


@functools.lru_cache(maxsize=None)
def _words(n):
    """Every element of W_0 with its reduced word, keyed by finite part."""
    return {(w.perm, w.signs): (w, reduced_word(word, n)) for w, word in finite_group(n)}


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
    reduced_word of the search's word for its element."""
    levels = bfs_levels(n, key=lambda w: w.linear_apply((1,) * n))
    oracle = sorted(((tuple(reduced_word(word, n)), w) for level in levels for w, word in level),
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
    assert len(reduced_word(reps[-1], n)) == n * (n + 1) // 2


def test_w0_coset_element_is_the_longest_representative():
    n = 3
    words = min_coset_reps(n)
    cand = WeylElem.from_word(words[-1], n)
    lengths = [len(word) for word in words]
    assert lengths[-1] == max(lengths) and lengths.count(max(lengths)) == 1
    # composing with the parabolic longest element gives the full longest one
    grp = finite_group(n)
    w0 = max(grp, key=lambda pair: len(reduced_word(pair[1], n)))[0]
    parabolic = [(w, word) for w, word in grp if set(reduced_word(word, n)) <= set(range(1, n))]
    w0j_small = max(parabolic, key=lambda pair: len(reduced_word(pair[1], n)))[0]
    assert cand * w0j_small == w0


@pytest.mark.parametrize("i,n", [(1, 2), (2, 2), (1, 3), (3, 3)])
def test_tau_word_shifts_one_coordinate(i, n):
    params = sample_generic(seed=4, n=n)
    word = tau_word(i, n)
    assert reduced_word(word, n) == word
    # the integer point moves by one period d = 2n + 2 in coordinate i
    home = list(range(n, 0, -1))
    home[i - 1] += 2 * n + 2
    assert weyl.WeylElem.from_word(word, n) == tuple(home)
    t = tuple(0.8 + 0.1j * k for k in range(1, n + 1))
    q = params.q
    for moved in (act_point(WeylElem.from_word(word, n), t, params), act_word(word, t, params)):
        for k in range(n):
            expect = t[k] * q if k == i - 1 else t[k]
            assert abs(moved[k] - expect) < 1e-12

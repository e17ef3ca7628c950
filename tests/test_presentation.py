"""Row sets from the presentation: the relation batteries against the
Coxeter matrix of the affine Weyl group of type C~_n, on the generators
0..n, from which every row name is derived here and never from the
batteries' own loops (an oracle that replays them inherits their defects).

m(0, 1) = m(n-1, n) = 4, m(i, i+1) = 3 for 0 < i < n-1 and m(a, b) = 2 for
|a - b| >= 2, with m(0, 1) = infinity at n = 1 (Humphreys, Reflection Groups
and Coxeter Groups, CUP 1990).  A pair with m = 4 carries a fourfold braid
(a reflection equation once dressed), m = 3 a threefold one (Yang-Baxter),
m = 2 a commutation and m = infinity none; every generator carries its
quadratic (idempotent) row, and each middle generator, a node of the
Coxeter graph with two neighbours, a hook row per neighbour."""

import itertools
import math

import pytest

from conftest import sample_generic
from heckespin.baxter import check_ybe_re
from heckespin.matchings import matchmaker_betas, matchmaker_matrix
from heckespin.numerics import stream
from heckespin.spinrep import build_spin_rep, check_hecke_relations, check_tl_relations, loop_weights


def coxeter_matrix(n: int) -> dict:
    """m(a, b) for the pairs a < b of the generators 0..n of C~_n."""
    def m(a, b):
        if b - a >= 2:
            return 2
        if n == 1:
            return math.inf
        return 4 if a == 0 or b == n else 3

    return {(a, b): m(a, b) for a, b in itertools.combinations(range(n + 1), 2)}


def _neighbours(n: int, a: int) -> list:
    return [c for pair, m in coxeter_matrix(n).items() if m > 2 and a in pair for c in pair if c != a]


def hecke_rows(n: int) -> set:
    """The rows of check_hecke_relations: each fourfold pair named by its
    boundary, T0 T1 at the left and Tn-1 Tn at the right."""
    rows = {f"quadratic T{j}" for j in range(n + 1)}
    for (a, b), m in coxeter_matrix(n).items():
        if m == 4:
            rows.add("braid T0 T1 fourfold" if a == 0 else "braid Tn-1 Tn fourfold")
        elif m == 3:
            rows.add(f"braid T{a} T{b} threefold")
        elif m == 2:
            rows.add(f"commute T{a} T{b}")
    return rows


def tl_rows(n: int) -> set:
    """The rows of check_tl_relations."""
    rows = {f"idempotent e{j}" for j in range(n + 1)}
    rows |= {f"commute e{a} e{b}" for (a, b), m in coxeter_matrix(n).items() if m == 2}
    middle = [a for a in range(n + 1) if len(_neighbours(n, a)) == 2]
    return rows | {f"hook e{a} e{c}" for a in middle for c in _neighbours(n, a)}


def ybe_rows(n: int) -> set:
    """The rows of check_ybe_re: a reflection row per fourfold pair, a
    Yang-Baxter row per threefold one, a far commutation per commuting pair
    (K0, R_i and Kn the dressed generators 0, i and n), and unitarity,
    regularity and degeneration per generator, with the suite's control."""
    name = {0: "K0", n: "Kn", **{i: f"R{i}" for i in range(1, n)}}
    rows = {"negative control perturbed reflection"}
    for (a, b), m in coxeter_matrix(n).items():
        if m == 4:
            rows.add(f"reflection at the {'left' if a == 0 else 'right'} boundary")
        elif m == 3:
            rows.add(f"yang-baxter braid {name[a]} {name[b]}")
        elif b == n and a > 0:
            rows.add(f"far commutation Kn {name[a]}")
        else:
            rows.add(f"far commutation {name[a]} {name[b]}")
    for j in range(n + 1):
        rows |= {f"unitarity {name[j]}", f"regularity at x=1 {name[j]}", f"degeneration at x=0 {name[j]}"}
    return rows


def test_the_coxeter_matrix_is_c_tilde():
    assert coxeter_matrix(1) == {(0, 1): math.inf}
    assert coxeter_matrix(2) == {(0, 1): 4, (0, 2): 2, (1, 2): 4}
    assert coxeter_matrix(4) == {(0, 1): 4, (0, 2): 2, (0, 3): 2, (0, 4): 2, (1, 2): 3,
                                 (1, 3): 2, (1, 4): 2, (2, 3): 3, (2, 4): 2, (3, 4): 4}


@pytest.mark.parametrize("n", range(1, 11))
def test_the_relation_batteries_hold_the_rows_of_the_presentation(n):
    p = sample_generic(seed=1, n=n)
    rep, weights = build_spin_rep(p), loop_weights(p)
    mats = {j: matchmaker_matrix(j, weights, *matchmaker_betas(p)) for j in range(n + 1)}
    assert set(check_hecke_relations(rep.T, p)) == hecke_rows(n)
    assert set(check_tl_relations(rep.e, weights)) == tl_rows(n)
    assert set(check_tl_relations(mats, weights)) == tl_rows(n)


@pytest.mark.parametrize("n", [2] + [pytest.param(n, marks=pytest.mark.xfail(
    strict=True, reason=f"check_ybe_re lacks the row far commutation Kn R{n - 2}")) for n in range(3, 11)])
def test_the_identity_battery_holds_the_rows_of_the_presentation(n):
    got, want = set(check_ybe_re(sample_generic(seed=1, n=n), 1, stream(1))), ybe_rows(n)
    # the one known gap, so that the strict marker trips on nothing else
    assert got <= want and want - got <= {f"far commutation Kn R{n - 2}"}
    assert got == want

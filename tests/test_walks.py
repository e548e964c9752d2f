"""The two dominant-weight walks against the dense box filters they replace.

``finchar._dominant_below`` walks down the positive roots from a highest
weight; ``affine._dominant_box`` walks the dual marks one axis at a time.
The references in ``oracles`` enumerate a whole box and filter it, so they
are only run where that box is small.  Both walks must give the same cells
in the same order.
"""

from __future__ import annotations

import functools
import itertools
from math import comb, prod

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from afftrans import affine, finchar
from afftrans.affine import Level
from afftrans.rootsys import Weight, root_system

SMALL_RANK = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
              "D3", "D4", "F4", "G2"]
EXCEPTIONAL = ["E6", "E7", "E8", "F4"]
BOX_LIMIT = 5000  # cells of a reference box, so that each example stays quick

SETTINGS = settings(max_examples=120, deadline=None, database=None)


def _cartan(name):
    return oracles.cartan_matrix(name[0], int(name[1:]))


@functools.lru_cache(maxsize=None)
def _small_weights(name, top, total):
    """Dominant weights with coordinates up to ``top`` summing to at most
    ``total`` whose reference box has at most ``BOX_LIMIT`` cells."""
    cartan = _cartan(name)
    out = []
    for lam in itertools.product(range(top + 1), repeat=len(cartan)):
        if sum(lam) > total:
            continue
        tops = oracles.root_coordinates(cartan, lam)
        if prod(int(t) + 1 for t in tops) <= BOX_LIMIT:
            out.append(lam)
    return out


@st.composite
def type_and_weight(draw, names, top, total):
    name = draw(st.sampled_from(names))
    return name, draw(st.sampled_from(_small_weights(name, top, total)))


def _check_below(name, lam):
    got = finchar._dominant_below(root_system(name), Weight(lam))
    assert got == oracles.dominant_below_box(_cartan(name), lam)


@SETTINGS
@given(type_and_weight(SMALL_RANK, 3, 6))
def test_dominant_below_matches_the_box_filter_up_to_rank_4(case):
    _check_below(*case)


@SETTINGS
@given(type_and_weight(EXCEPTIONAL, 2, 2))
def test_dominant_below_matches_the_box_filter_on_small_exceptional_weights(case):
    _check_below(*case)


@functools.lru_cache(maxsize=None)
def _top_height(name):
    """The largest height whose reference box has at most ``BOX_LIMIT`` cells."""
    marks = root_system(name).coroot_rows[-1]
    height = sum(marks)
    while prod((height + 1 - sum(marks)) // m + 1 for m in marks) <= BOX_LIMIT:
        height += 1
    return height


@st.composite
def type_and_height(draw):
    name = draw(st.sampled_from(SMALL_RANK + ["E6", "E7", "E8"]))
    return name, draw(st.integers(-10, _top_height(name)))


@SETTINGS
@given(type_and_height())
def test_dominant_box_matches_the_box_filter(case):
    name, height = case
    rs = root_system(name)
    assert list(affine._dominant_box(rs, height)) == \
        oracles.dominant_box(rs.coroot_rows[-1], height)


# ---------------------------------------------------------------------------
# cases the box filters refused or took seconds on

DUAL_MARKS = {"A7": (1,) * 7, "D6": (1, 2, 2, 2, 1, 1), "E8": (2, 3, 4, 6, 5, 4, 3, 2)}


def _count_by_marks(marks, room):
    """How many c >= 0 have sum(a_i * c_i) <= room: partial sums of the
    coefficients of prod 1 / (1 - x^a_i)."""
    ways = [1] + [0] * room
    for a in marks:
        for r in range(a, room + 1):
            ways[r] += ways[r - a]
    return sum(ways)


def test_count_by_marks_is_the_binomial_on_type_a():
    assert _count_by_marks((1,) * 7, 12) == comb(12 + 7, 7)


def test_large_alcoves_are_listed_with_their_independent_counts():
    for name, p, count in [("A7", 20, 50_388), ("D6", 30, 41_041), ("E8", 60, 20_956)]:
        rs = root_system(name)
        assert rs.coroot_rows[-1] == DUAL_MARKS[name]
        weights = affine.enumerate_dominant(rs, Level(p, 1))
        room = p - 1 - sum(DUAL_MARKS[name])
        assert len(weights) == _count_by_marks(DUAL_MARKS[name], room) == count
        assert len(set(weights)) == count and list(weights) == sorted(weights)


def test_e8_adjoint_character_is_the_roots_and_eight_zeros():
    # the dominant weights below theta are theta and 0, nothing else
    rs = root_system("E8")
    chars = finchar.weight_multiplicities(rs, rs.theta)
    zero = Weight.zero(8)
    roots = set(rs.positive_roots) | {-alpha for alpha in rs.positive_roots}
    assert len(roots) == 2 * oracles.positive_root_count("E", 8) == 240
    assert chars.pop(zero) == 8
    assert set(chars) == roots and set(chars.values()) == {1}

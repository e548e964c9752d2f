from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from afftrans import affine, translate, weyl
from afftrans.affine import AffineWeylElement, Level, identity_element
from afftrans.errors import DomainError
from afftrans.rootsys import Weight, root_system
from afftrans.weyl import IDENTITY, WeylElement

S = WeylElement((0,))  # the single reflection of A1
SMALL = ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]


def _matrix(rs, w):
    """w as a tuple-of-rows matrix on fundamental coordinates."""
    n = rs.rank
    cols = [weyl.apply(rs, w, [int(i == j) for i in range(n)]) for j in range(n)]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# actions


def test_apply_a1_examples():
    rs = root_system("A1")
    for m in (-2, 0, 1, 5):
        assert weyl.apply(rs, S, Weight([m])) == Weight([-m])
    assert weyl.apply(rs, S, Weight([0]), shifted=True) == Weight([-2])


def test_apply_a2_dot_example():
    rs = root_system("A2")
    s1 = WeylElement((0,))
    assert weyl.apply(rs, s1, Weight([0, 0]), shifted=True) == Weight([-2, 1])


@pytest.mark.parametrize("name", SMALL)
def test_dot_action_is_conjugated_plain_action(name):
    rs = root_system(name)
    rng = random.Random(11)
    elements = weyl.enumerate_elements(rs)
    for _ in range(25):
        w = rng.choice(elements)
        lam = Weight(rng.randint(-4, 4) for _ in range(rs.rank))
        plain = weyl.apply(rs, w, lam + rs.rho) - rs.rho
        assert weyl.apply(rs, w, lam, shifted=True) == plain


@pytest.mark.parametrize("name", SMALL)
def test_apply_respects_composition(name):
    rs = root_system(name)
    rng = random.Random(5)
    elements = weyl.enumerate_elements(rs)
    for _ in range(25):
        w, v = rng.choice(elements), rng.choice(elements)
        lam = Weight(rng.randint(-4, 4) for _ in range(rs.rank))
        lhs = weyl.apply(rs, weyl.compose(rs, w, v), lam)
        assert lhs == weyl.apply(rs, w, weyl.apply(rs, v, lam))


# ---------------------------------------------------------------------------
# dominant representatives


def test_dominant_rep_examples():
    a1 = root_system("A1")
    assert weyl.dominant_rep(a1, Weight([-3])) == (Weight([3]), S, True)
    rep, w, regular = weyl.dominant_rep(a1, Weight([-1]), shifted=True)
    assert (rep, w, regular) == (Weight([-1]), IDENTITY, False)
    a2 = root_system("A2")
    rep, w, regular = weyl.dominant_rep(a2, Weight([-2, 1]), shifted=True)
    assert rep == Weight([0, 0])
    assert w == WeylElement((0,))
    assert regular


def test_dominant_rep_fixes_dominant_weights():
    a2 = root_system("A2")
    for lam in (Weight([0, 0]), Weight([2, 1])):
        rep, w, _ = weyl.dominant_rep(a2, lam)
        assert rep == lam and w == IDENTITY


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("shifted", [False, True])
def test_dominant_rep_roundtrip(name, shifted):
    rs = root_system(name)
    rng = random.Random(77)
    for _ in range(40):
        lam = Weight(rng.randint(-6, 6) for _ in range(rs.rank))
        rep, w, _ = weyl.dominant_rep(rs, lam, shifted=shifted)
        assert weyl.apply(rs, w, lam, shifted=shifted) == rep
        shifted_rep = [c + 1 for c in rep] if shifted else rep
        assert all(c >= 0 for c in shifted_rep)


@pytest.mark.parametrize("name", SMALL)
def test_plain_action_then_dominant_rep_recovers(name):
    rs = root_system(name)
    rng = random.Random(13)
    elements = weyl.enumerate_elements(rs)
    for _ in range(30):
        lam = Weight(rng.randint(0, 5) for _ in range(rs.rank))
        moved = weyl.apply(rs, rng.choice(elements), lam)
        rep, _, _ = weyl.dominant_rep(rs, moved)
        assert rep == lam


def test_singular_shifted_rep_has_minimal_length():
    # on a wall the walk must not wander: lam+rho = 0 is fixed by everything
    a1 = root_system("A1")
    _, w, regular = weyl.dominant_rep(a1, Weight([-1]), shifted=True)
    assert w.length == 0 and not regular


# ---------------------------------------------------------------------------
# orbits


def test_orbit_examples():
    a1 = root_system("A1")
    assert weyl.orbit(a1, Weight([2])) == {Weight([2]), Weight([-2])}
    assert weyl.orbit(a1, Weight([-1]), shifted=True) == {Weight([-1])}
    a2 = root_system("A2")
    assert weyl.orbit(a2, Weight([1, 0])) == {
        Weight([1, 0]), Weight([-1, 1]), Weight([0, -1])}


@pytest.mark.parametrize("name", SMALL)
def test_orbit_size_divides_group_order(name):
    rs = root_system(name)
    order = oracles.weyl_order(name[0], int(name[1:]))
    rng = random.Random(21)
    for _ in range(10):
        lam = Weight(rng.randint(0, 3) for _ in range(rs.rank))
        assert order % len(weyl.orbit(rs, lam)) == 0


@pytest.mark.parametrize("name", SMALL)
def test_orbit_is_the_matrix_group_image(name):
    # dominant, singular, non-dominant and fractional weights, against the
    # oracle's matrices: plain w(lam) and shifted w(lam + rho) - rho
    rs = root_system(name)
    group = oracles.weyl_group(oracles.cartan_matrix(name[0], int(name[1:])))
    n = rs.rank
    rng = random.Random(5)
    weights = [rs.rho, Weight.zero(n), Weight([0] * (n - 1) + [2]),
               Weight(rng.randint(-3, 3) for _ in range(n)),
               Weight(rng.randint(-3, 3) for _ in range(n)),
               Weight([Fraction(1, 2), -3, Fraction(-2, 3)][:n])]
    for lam in weights:
        plain = {oracles._mat_vec(m, lam) for m in group}
        assert weyl.orbit(rs, lam) == plain
        moved = {oracles._mat_vec(m, [c + 1 for c in lam]) for m in group}
        assert weyl.orbit(rs, lam, shifted=True) == {
            tuple(c - 1 for c in x) for x in moved}


@pytest.mark.parametrize("name", SMALL)
def test_regular_orbit_has_full_size(name):
    rs = root_system(name)
    order = oracles.weyl_order(name[0], int(name[1:]))
    assert len(weyl.orbit(rs, rs.rho)) == order


# ---------------------------------------------------------------------------
# duality involution


def test_bar_involution_examples():
    a1 = root_system("A1")
    assert weyl.bar_involution(a1, Weight([3])) == Weight([3])
    a2 = root_system("A2")
    assert weyl.bar_involution(a2, Weight([1, 0])) == Weight([0, 1])
    assert weyl.bar_involution(a2, Weight([1, 1])) == Weight([1, 1])


def test_bar_involution_rejects_non_dominant():
    with pytest.raises(DomainError):
        weyl.bar_involution(root_system("A2"), Weight([-1, 0]))


@pytest.mark.parametrize("name", SMALL + ["D4", "F4"])
def test_bar_involution_is_an_involution(name):
    rs = root_system(name)
    rng = random.Random(9)
    for _ in range(50):
        lam = Weight(rng.randint(0, 6) for _ in range(rs.rank))
        bar = weyl.bar_involution(rs, lam)
        assert bar.is_dominant
        assert weyl.bar_involution(rs, bar) == lam


def test_bar_involution_is_identity_outside_a_d_e6():
    # -w_0 = id whenever w_0 = -1
    for name in ("B3", "C3", "D4", "G2", "F4"):
        rs = root_system(name)
        lam = Weight(range(1, rs.rank + 1))
        assert weyl.bar_involution(rs, lam) == lam


# ---------------------------------------------------------------------------
# canonical words and the group


def test_canonical_form_examples():
    a2 = root_system("A2")
    braid = weyl.canonical_from_word(a2, (1, 0, 1))  # s2 s1 s2
    assert braid.word == (0, 1, 0)  # equals s1 s2 s1, which sorts first
    assert weyl.canonical_from_word(a2, (0, 0)) == IDENTITY
    assert weyl.canonical_from_word(a2, (1, 1, 0)).word == (0,)
    assert str(WeylElement((0, 1, 0))) == "s1s2s1"
    assert str(IDENTITY) == "e"


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_canonical_word_is_lex_least_reduced(name):
    # brute force over all words of the right length: the first one (in lex
    # order) that evaluates to the element must be its stored word
    rs = root_system(name)
    for w in weyl.enumerate_elements(rs):
        target = _matrix(rs, w)
        first = next(
            cand for cand in itertools.product(range(rs.rank), repeat=w.length)
            if _matrix(rs, weyl.canonical_from_word(rs, cand)) == target)
        assert first == w.word


@pytest.mark.parametrize("name", SMALL)
def test_canonicalization_is_idempotent(name):
    rs = root_system(name)
    for w in weyl.enumerate_elements(rs):
        assert weyl.canonical_from_word(rs, w.word) == w
        assert w.length == len(w.word)


@pytest.mark.parametrize("name,word", [
    ("A1", (0,)), ("A2", (0, 1, 0)),
])
def test_longest_element_words(name, word):
    assert weyl.longest_element(root_system(name)).word == word


@pytest.mark.parametrize("name", SMALL + ["D4", "F4"])
def test_longest_element_properties(name):
    rs = root_system(name)
    w0 = weyl.longest_element(rs)
    assert w0.length == len(rs.positive_roots)
    assert weyl.compose(rs, w0, w0) == IDENTITY
    assert weyl.apply(rs, w0, rs.rho) == -rs.rho


@pytest.mark.parametrize("name", SMALL)
def test_enumerate_elements_matches_group_order(name):
    rs = root_system(name)
    elements = weyl.enumerate_elements(rs)
    assert len(elements) == oracles.weyl_order(name[0], int(name[1:]))
    assert elements[0] == IDENTITY
    assert elements == sorted(elements, key=lambda w: (w.length, w.word))
    assert len(set(elements)) == len(elements)


def test_enumerate_elements_size_guard():
    with pytest.raises(DomainError, match="Weyl group of B3 exceeds max_size=10$"):
        weyl.enumerate_elements(root_system("B3"), max_size=10)
    # the threshold is exactly the group order
    for name in ("B3", "G2"):
        rs = root_system(name)
        order = oracles.weyl_order(name[0], int(name[1:]))
        assert len(weyl.enumerate_elements(rs, max_size=order)) == order
        with pytest.raises(DomainError, match=f"exceeds max_size={order - 1}$"):
            weyl.enumerate_elements(rs, max_size=order - 1)


ORDER_TYPES = ["A1", "A2", "A3", "B2", "B3", "B4", "C3", "D4", "D5", "E6", "E7",
               "E8", "F4", "G2"]


@pytest.mark.parametrize("name", ORDER_TYPES)
def test_closed_form_order_matches_the_oracle(name):
    assert weyl._order(root_system(name)) == oracles.weyl_order(name[0], int(name[1:]))


@pytest.mark.parametrize("call", [
    pytest.param(lambda e7: weyl.enumerate_elements(e7), id="enumerate_elements"),
    pytest.param(lambda e7: translate.verify_weight_geometry(
        e7, [0] * 7, [0] * 7, identity_element(7), Level(40, 1), 400),
        id="verify_weight_geometry"),
])
def test_e7_is_refused_before_any_walk(call):
    e7 = root_system("E7")
    start = time.perf_counter()
    with pytest.raises(DomainError, match="^Weyl group of E7 exceeds max_size=1000000$"):
        call(e7)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "D4"])
def test_elements_realise_the_matrix_group(name):
    # canonical words and the independent matrix BFS give the same group,
    # with the same length function
    rs = root_system(name)
    reference = oracles.weyl_group(oracles.cartan_matrix(name[0], int(name[1:])))
    ours = {_matrix(rs, w): w.length for w in weyl.enumerate_elements(rs)}
    assert ours == dict(reference)


@pytest.mark.parametrize("name", SMALL)
def test_inverse(name):
    rs = root_system(name)
    for w in weyl.enumerate_elements(rs):
        assert weyl.compose(rs, w, weyl.inverse(rs, w)) == IDENTITY
        assert weyl.inverse(rs, weyl.inverse(rs, w)) == w


def test_reflection_in_root():
    a1 = root_system("A1")
    assert weyl.reflection_in_root(a1, a1.theta) == S
    a2 = root_system("A2")
    assert weyl.reflection_in_root(a2, a2.theta).word == (0, 1, 0)
    for i, alpha in enumerate(a2.simple_roots):
        assert weyl.reflection_in_root(a2, alpha) == WeylElement((i,))
        assert weyl.reflection_in_root(a2, -alpha) == WeylElement((i,))
    with pytest.raises(DomainError):
        weyl.reflection_in_root(a2, Weight([1, 1]) * 2)


WORD_TYPES = ["A3", "B3", "C3", "D4", "F4", "G2"]


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(WORD_TYPES).flatmap(lambda name: st.tuples(
    st.just(name), st.lists(st.integers(0, int(name[1:]) - 1), max_size=40))))
def test_canonical_word_of_random_words(case):
    # the raw word's matrix comes from the oracle's reflection matrices, its
    # length from the oracle's breadth-first closure of the group
    name, word = case
    rs = root_system(name)
    cartan = oracles.cartan_matrix(name[0], int(name[1:]))
    gens = oracles.reflection_matrices(cartan)
    raw = tuple(tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank))
    for letter in word:
        raw = oracles._mat_mul(raw, gens[letter])
    w = weyl.canonical_from_word(rs, word)
    assert _matrix(rs, w) == raw
    assert w.length == oracles.weyl_group(cartan)[raw]
    assert weyl.canonical_from_word(rs, w.word) == w


# ---------------------------------------------------------------------------
# malformed group elements


_A2 = root_system("A2")
_BAD_FINITE = AffineWeylElement(Weight([0, 0]), WeylElement((7,)))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: weyl.canonical_from_word(_A2, [-1]), id="negative-letter"),
    pytest.param(lambda: weyl.canonical_from_word(_A2, [5]), id="letter-past-rank"),
    pytest.param(lambda: weyl.apply(_A2, WeylElement((5,)), [1, 0]), id="apply"),
    pytest.param(lambda: affine.affine_apply(_A2, _BAD_FINITE, [0, 0], Level(5, 1)),
                 id="affine-apply"),
    pytest.param(lambda: translate.translate_weyl(
        _A2, _BAD_FINITE, [0, 0], [1, 0], Level(5, 1)), id="translate-weyl"),
    pytest.param(lambda: affine.compose_affine(
        _A2, AffineWeylElement(Weight([5]), IDENTITY), identity_element(2)),
        id="compose-affine-wrong-rank-translation"),
])
def test_malformed_group_elements_raise_domain_error(call):
    with pytest.raises(DomainError) as info:
        call()
    assert "\n" not in str(info.value)

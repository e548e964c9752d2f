"""Affine Weyl group at level: alcove walk, regularity, linkage, orbits."""

from __future__ import annotations

import inspect
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import afftrans
import oracles
from afftrans import affine, annihilator, finchar, rootsys, translate, weyl
from afftrans.affine import (
    AffineWeylElement,
    Level,
    compose_affine,
    identity_element,
    inverse_affine,
    translation_element,
)
from afftrans.errors import DomainError, InexactCoordinateError
from afftrans.rootsys import Weight, coroot_pairings, root_system
from afftrans.weyl import IDENTITY, WeylElement

A1 = root_system("A1")
A2 = root_system("A2")
P5 = Level(5, 1)


def t5a_s():
    # (t_{5 alpha}, s) in A1: translation 5 * [2] = [10]
    return AffineWeylElement(Weight([10]), WeylElement((0,)))


# ---------------------------------------------------------------------------
# Level


def test_level_validation():
    assert Level(5, 1).t == 5
    assert Level(7, 2).t == Fraction(7, 2)
    with pytest.raises(DomainError):
        Level(4, 2)  # not lowest terms
    with pytest.raises(DomainError):
        Level(0, 1)
    with pytest.raises(DomainError):
        Level(-3, 1)
    with pytest.raises(DomainError):
        Level(5, -1)


def test_level_from_shifted_and_k():
    lvl = Level.from_shifted(Fraction(7, 2))
    assert (lvl.p, lvl.q) == (7, 2)
    assert lvl.k(A1) == Fraction(3, 2)  # 7/2 - 2
    assert Level.from_shifted(5).k(A2) == 2  # 5 - 3
    assert str(Level(5, 1)) == "5/1"


def test_level_refuses_bool_parts():
    with pytest.raises(DomainError, match="integer p, q"):
        Level(5, True)
    with pytest.raises(DomainError, match="integer p, q"):
        Level(True, 1)


def test_level_from_shifted_refuses_float():
    with pytest.raises(InexactCoordinateError, match="2.5"):
        Level.from_shifted(2.5)


@pytest.mark.parametrize("bad", ["abc", "1/0", None, True])
def test_level_from_shifted_refuses_malformed(bad):
    with pytest.raises(DomainError, match="malformed level"):
        Level.from_shifted(bad)


# ---------------------------------------------------------------------------
# dot action


def test_affine_apply_examples():
    pure_translation = translation_element(A1, Weight([10]))
    assert affine.affine_apply(A1, pure_translation, Weight([0]), P5) == Weight([10])
    assert affine.affine_apply(A1, t5a_s(), Weight([0]), P5) == Weight([8])
    assert affine.affine_apply(A1, identity_element(1), Weight([3]), P5) == Weight([3])


def test_affine_apply_rejects_off_lattice_translation():
    bad = translation_element(A1, Weight([3]))  # 3/2 alpha, not in 5Q
    with pytest.raises(DomainError):
        affine.affine_apply(A1, bad, Weight([0]), P5)
    not_p_multiple = translation_element(A1, Weight([2]))  # alpha, but p = 5
    with pytest.raises(DomainError):
        affine.affine_apply(A1, not_p_multiple, Weight([0]), P5)


LATTICE_TYPES = ["A1", "A2", "A3", "B2", "C3", "G2"]


@st.composite
def _lattice_weight(draw, rs, p):
    """A weight in pQ, in Q, integral (often outside Q) or with fractional coordinates."""
    kind = draw(st.sampled_from(["pQ", "Q", "integral", "fraction"]))
    if kind == "fraction":
        return Weight(draw(st.lists(st.fractions(-6, 6, max_denominator=6),
                                    min_size=rs.rank, max_size=rs.rank)))
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=rs.rank, max_size=rs.rank))
    if kind == "integral":
        return Weight(coeffs)
    scale = p if kind == "pQ" else 1
    return sum((scale * c * alpha for c, alpha in zip(coeffs, rs.simple_roots)),
               Weight.zero(rs.rank))


def _in_pq(rs, wt, p):
    return all(Fraction(c) % p == 0 for c in rootsys.root_coords(rs, wt))


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_residues_read_the_lattice_pq(data):
    rs = root_system(data.draw(st.sampled_from(LATTICE_TYPES)))
    p = data.draw(st.integers(2, 9))
    a = data.draw(_lattice_weight(rs, p))
    b = a + data.draw(_lattice_weight(rs, p))  # a - b is in pQ about a quarter of the time
    assert any(affine._residue(rs, a, p)) is not _in_pq(rs, a, p)
    assert (affine._residue(rs, a, p) == affine._residue(rs, b, p)) is _in_pq(rs, a - b, p)


def test_fractional_translation_refusal_keeps_its_text():
    g = translation_element(A2, Weight([Fraction(1, 2), 0]))
    message = ("translation [1/2,0] is not in 5Q^vee "
               "(root coords (Fraction(1, 3), Fraction(1, 6)))")
    with pytest.raises(DomainError, match=re.escape(message) + "$"):
        affine.affine_apply(A2, g, Weight([0, 0]), P5)


def test_translation_lattice_coords():
    assert affine.translation_lattice_coords(A1, t5a_s(), P5) == (5,)
    g = translation_element(A2, 4 * (A2.simple_roots[0] + 2 * A2.simple_roots[1]))
    assert affine.translation_lattice_coords(A2, g, Level(4, 1)) == (4, 8)


GROUP_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]


@st.composite
def _root_lattice_elements(draw):
    """``(rs, cartan, level, beta, g)``: ``g`` has a drawn word and the translation
    ``beta = p sum c_i alpha_i`` in pQ, held as a ``Weight``, an int tuple or a ``Fraction``
    tuple; on B2, B3, C3 and G2 it is often outside pQ^vee."""
    name = draw(st.sampled_from(GROUP_TYPES))
    rs, cartan = root_system(name), oracles.cartan_matrix(name[0], int(name[1:]))
    p = draw(st.integers(rs.dual_coxeter + 1, rs.dual_coxeter + 6))
    cs = draw(st.lists(st.integers(-2, 2), min_size=rs.rank, max_size=rs.rank))
    beta = tuple(p * sum(c * alpha[j] for c, alpha in zip(cs, rs.simple_roots))
                 for j in range(rs.rank))
    held = draw(st.sampled_from([Weight(beta), beta, tuple(map(Fraction, beta))]))
    word = tuple(draw(st.lists(st.integers(0, rs.rank - 1), max_size=6)))
    return rs, cartan, Level(p, 1), beta, AffineWeylElement(held, WeylElement(word))


def _integral_weights(rank):
    return st.lists(st.integers(-4, 6), min_size=rank, max_size=rank).map(Weight)


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_the_group_element_check_accepts_exactly_p_coroot_lattice(data):
    rs, cartan, level, beta, g = data.draw(_root_lattice_elements())
    lam = data.draw(_integral_weights(rs.rank))
    if oracles.in_p_coroot_lattice(cartan, level.p, beta):
        image = weyl.apply(rs, g.finite, lam, shifted=True) + Weight(beta)
        assert affine.affine_apply(rs, g, lam, level) == image
    else:
        coords = tuple(int(c) for c in oracles.root_coordinates(cartan, beta))
        message = f"translation {Weight(beta)} is not in {level.p}Q^vee (root coords {coords})"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            affine.affine_apply(rs, g, lam, level)


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_every_element_the_check_accepts_keeps_its_image_linked(data):
    rs, _, level, _, g = data.draw(_root_lattice_elements())
    lam = data.draw(_integral_weights(rs.rank))
    try:
        image = affine.affine_apply(rs, g, lam, level)
    except DomainError:
        assume(False)
    assert affine.linked(rs, image, lam, level)


@pytest.mark.parametrize("name,p", [("A1", 5), ("A2", 4), ("B2", 7), ("G2", 7)])
def test_compose_inverse_laws(name, p):
    rs = root_system(name)
    level = Level(p, 1)
    rng = random.Random(42)
    elements = weyl.enumerate_elements(rs)

    def random_element():  # translation in pQ^vee
        beta = Weight([0] * rs.rank)
        for coroot in oracles.simple_coroots(rs.cartan):
            beta = beta + (p * rng.randint(-2, 2)) * Weight(coroot)
        return AffineWeylElement(beta, rng.choice(elements))

    for _ in range(50):
        g, h = random_element(), random_element()
        lam = Weight(rng.randint(-6, 6) for _ in range(rs.rank))
        composed = compose_affine(rs, g, h)
        assert affine.affine_apply(rs, composed, lam, level) == \
            affine.affine_apply(rs, g, affine.affine_apply(rs, h, lam, level), level)
        gi = inverse_affine(rs, g)
        assert compose_affine(rs, g, gi).is_identity
        assert affine.affine_apply(rs, gi, affine.affine_apply(rs, g, lam, level), level) == lam


# ---------------------------------------------------------------------------
# the fundamental alcove


def test_in_fundamental_alcove_examples():
    assert affine.in_fundamental_alcove(A1, Weight([3]), P5)
    assert not affine.in_fundamental_alcove(A1, Weight([4]), P5)
    assert affine.in_fundamental_alcove(A1, Weight([4]), P5, strict=False)
    assert affine.in_fundamental_alcove(A2, Weight([1, 0]), Level(4, 1))


def test_alcove_boundary_cases():
    # lam + rho on the chamber wall: non-strict only
    assert not affine.in_fundamental_alcove(A1, Weight([-1]), P5)
    assert affine.in_fundamental_alcove(A1, Weight([-1]), P5, strict=False)
    assert not affine.in_fundamental_alcove(A1, Weight([-2]), P5, strict=False)


def test_alcove_rep_examples():
    rep, g, regular = affine.alcove_rep(A1, Weight([8]), P5)
    assert rep == Weight([0])
    assert g == t5a_s()
    assert regular

    rep, g, regular = affine.alcove_rep(A1, Weight([4]), P5)
    assert (rep, g.is_identity, regular) == (Weight([4]), True, False)

    rep, g, regular = affine.alcove_rep(A1, Weight([2]), P5)
    assert (rep, g.is_identity, regular) == (Weight([2]), True, True)


def test_alcove_rep_rejects_non_integral():
    with pytest.raises(DomainError):
        affine.alcove_rep(A1, Weight([Fraction(1, 2)]), P5)


@pytest.mark.parametrize("name,p", [("A1", 5), ("A1", 3), ("A2", 4), ("B2", 7), ("G2", 7),
                                    ("A3", 5), ("B3", 7), ("C3", 6)])
def test_alcove_rep_roundtrip_random(name, p):
    rs = root_system(name)
    level = Level(p, 1)
    rng = random.Random(p * 100 + rs.rank)
    for _ in range(200):
        lam = Weight(rng.randint(-12, 12) for _ in range(rs.rank))
        rep, g, regular = affine.alcove_rep(rs, lam, level)
        assert affine.in_fundamental_alcove(rs, rep, level, strict=False)
        assert affine.affine_apply(rs, g, rep, level) == lam
        assert affine.linked(rs, lam, rep, level)
        # regularity must agree with the direct wall test on the input
        walls = [v % p == 0 for v in coroot_pairings(rs, lam + rs.rho)]
        assert regular == (not any(walls))
        assert regular == affine.is_regular(rs, lam, level)


WALK_TYPES = ["A1", "A2", "A3", "B2", "C3", "G2"]


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_alcove_rep_matches_the_unreduced_walk(data):
    # the library reduces lam + rho mod pQ^vee before it walks; the oracle crosses
    # one wall per step from lam + rho itself.  Off the walls g is unique.
    name = data.draw(st.sampled_from(WALK_TYPES))
    rs, cartan = root_system(name), oracles.cartan_matrix(name[0], int(name[1:]))
    level = Level(data.draw(st.integers(rs.dual_coxeter + 1, rs.dual_coxeter + 6)), 1)
    lam = Weight(data.draw(st.lists(st.integers(-40, 40), min_size=rs.rank, max_size=rs.rank)))
    rep, g, regular = affine.alcove_rep(rs, lam, level)
    ref_rep, ref_finite, ref_translation, ref_regular, inside = oracles.alcove_walk(
        cartan, level.p, lam)
    assert (rep, regular) == (ref_rep, ref_regular)
    if inside:
        assert oracles.word_matrix(cartan, g.finite.word) == ref_finite
        assert g.translation == ref_translation
    assert affine.affine_apply(rs, g, rep, level) == lam


def _at_once(call):
    start = time.perf_counter()
    value = call()
    assert time.perf_counter() - start < 0.1
    return value


def test_far_weights_answer_at_once():
    # 10**7 and 10**30 lie about 10**6 and 10**29 walls from the alcove
    rep, g, regular = _at_once(lambda: affine.alcove_rep(A2, Weight([10 ** 7, 0]), P5))
    assert (rep, g.finite.word, regular) == (Weight([0, 2]), (0, 1), True)
    assert rootsys.root_coords(A2, g.translation) == (6666670, 3333335)
    assert _at_once(lambda: affine.linked(A2, [10 ** 30, 0], [0, 2], P5))
    assert not _at_once(lambda: affine.linked(A2, [10 ** 30, 0], [2, 0], P5))


@pytest.mark.parametrize("name", ["A2", "B2", "C3", "G2"])
def test_a_far_translate_by_pq_coroot_keeps_the_representative(name):
    # t_{N p theta} is in the walk's group (theta is long), so mu + N p theta has
    # mu's representative; the walk is reduced first, so N = 10**30 costs nothing
    rs = root_system(name)
    level = Level(rs.dual_coxeter + 3, 1)
    for mu in ([0] * rs.rank, [2] + [-3] * (rs.rank - 1), [-7] * rs.rank):
        far = Weight(m + 10 ** 30 * level.p * t for m, t in zip(mu, rs.theta))
        rep, g, regular = _at_once(lambda: affine.alcove_rep(rs, far, level))
        assert (rep, regular) == affine.alcove_rep(rs, mu, level)[::2]
        assert affine.affine_apply(rs, g, rep, level) == far
        assert _at_once(lambda: affine.linked(rs, far, mu, level))


# ---------------------------------------------------------------------------
# the public weight contract

OK = Weight([1, 0])  # regular and strictly inside the alcove of A2 at P5
ZERO = Weight([0, 0])
G = identity_element(2)

# Every public function that takes a weight (``afftrans.__all__`` plus
# ``weyl.apply``): valid keyword arguments on A2 at P5, and the weight
# parameters that must be integral.
CONTRACT = [
    (weyl.apply, dict(w=IDENTITY, lam=OK), ""),
    (weyl.dominant_rep, dict(lam=OK), ""),
    (weyl.orbit, dict(lam=OK), ""),
    (weyl.bar_involution, dict(lam=OK), "lam"),
    (weyl.reflection_in_root, dict(alpha=A2.theta), "alpha"),
    (affine.affine_apply, dict(g=G, lam=OK, level=P5), ""),
    (affine.alcove_rep, dict(lam=OK, level=P5), "lam"),
    (affine.linked, dict(lam=OK, mu=ZERO, level=P5), "lam mu"),
    (affine.is_regular, dict(lam=OK, level=P5), ""),
    (affine.dominant_orbit, dict(lam=OK, level=P5, bound=10), "lam"),
    (affine.in_fundamental_alcove, dict(lam=OK, level=P5), ""),
    (affine.translation_element, dict(beta=ZERO), ""),
    (rootsys.bilinear, dict(lam=OK, mu=ZERO), ""),
    (rootsys.coroot_pairings, dict(lam=OK), ""),
    (rootsys.pairing, dict(lam=OK, alpha=A2.theta), "alpha"),
    (rootsys.root_coords, dict(wt=OK), ""),
    (finchar.dimension, dict(lam=OK), "lam"),
    (finchar.weight_multiplicities, dict(lam=OK), "lam"),
    (finchar.tensor_decompose, dict(lam=OK, mu=ZERO), "lam mu"),
    (finchar.tensor_oracle, dict(lam=OK, mu=ZERO), "lam mu"),
    (translate.check_datum, dict(lam_left=OK, lam_right=OK, lam=ZERO, level=P5),
     "lam_left lam_right lam"),
    (translate.translation_weight, dict(lam=OK, mu=ZERO), "lam mu"),
    (translate.kl_weyl_filtration, dict(lam=OK, mu=ZERO), "lam mu"),
    (translate.project_linkage, dict(parts={}, target=OK, level=P5), "target"),
    (translate.translate_weyl, dict(g=G, mu=ZERO, lam=OK, level=P5), "mu lam"),
    (translate.translate_verma, dict(g=G, mu=ZERO, lam=OK, level=P5), "mu lam"),
    (translate.verify_weight_geometry,
     dict(lam=OK, mu=ZERO, g=G, level=P5, bound=40), "lam mu"),
    (translate.verma_filtration, dict(lam=OK, mu=ZERO), "lam mu"),
    (translate.make_character, dict(base=OK, coeffs={}, level=P5), "base"),
    (translate.translate_character,
     dict(chi=translate.make_character(A2, ZERO, {}, P5), lam=OK), "lam"),
    (translate.round_trip_check,
     dict(chi=translate.make_character(A2, ZERO, {}, P5), lam=OK), "lam"),
    (annihilator.make_labels, dict(base=OK, generators=[], level=P5), "base"),
    (annihilator.transport,
     dict(labels=annihilator.make_labels(A2, ZERO, [], P5), lam=OK), "lam"),
]
WEIGHT_PARAMS = {"lam", "mu", "wt", "base", "target", "beta", "alpha",
                 "lam_left", "lam_right"}
OTHER_PARAMS = {"rs", "level", "g", "h", "w", "chi", "labels", "parts", "coeffs",
                "generators", "cap", "bound", "shifted", "strict", "max_size",
                "integral_only", "spec", "text", "rank"}


def _cells(integral_only=False):
    """One pytest case per (function, weight parameter); the first weight
    parameter of a function is identified by the function name alone."""
    cases = []
    for fn, valid, integral in CONTRACT:
        params = [q for q in inspect.signature(fn).parameters if q in WEIGHT_PARAMS]
        for param in params:
            if integral_only and param not in integral.split():
                continue
            name = fn.__name__ if param == params[0] else f"{fn.__name__}-{param}"
            cases.append(pytest.param(fn, valid, param, id=name))
    return cases


def _spoiled(fn, valid, param, bad):
    return fn(A2, **{**valid, param: bad})


def test_contract_rows_are_valid_calls():
    for fn, valid, _ in CONTRACT:
        fn(A2, **valid)


@pytest.mark.parametrize("fn,valid,param", _cells())
def test_wrong_rank_weight_is_domain_error(fn, valid, param):
    match = "is not a root of A2" if param == "alpha" else "has wrong rank for A2"
    for bad in ([1], [1, 2, 3]):  # too short and too long
        with pytest.raises(DomainError, match=match):
            _spoiled(fn, valid, param, bad)


@pytest.mark.parametrize("fn,valid,param", _cells())
def test_float_coordinate_is_domain_error(fn, valid, param):
    with pytest.raises(InexactCoordinateError, match="floating point coordinate 1.0"):
        _spoiled(fn, valid, param, [1.0, 0])


@pytest.mark.parametrize("fn,valid,param", _cells())
def test_non_number_coordinate_is_domain_error(fn, valid, param):
    for bad in (["1/2", 0], [True, 0], [None, 0], [b"1", 0]):
        with pytest.raises(DomainError, match=r"^coordinate .+ is a \w+, not a number$"):
            _spoiled(fn, valid, param, bad)


@pytest.mark.parametrize("fn,valid,param", _cells())
def test_non_sequence_weight_is_domain_error(fn, valid, param):
    for bad in (5, None, "ab", b"ab"):
        with pytest.raises(DomainError, match="is not a sequence of numbers$"):
            _spoiled(fn, valid, param, bad)


@pytest.mark.parametrize("fn,valid,param", _cells(integral_only=True))
def test_nonintegral_weight_is_domain_error(fn, valid, param):
    with pytest.raises(DomainError):
        _spoiled(fn, valid, param, [Fraction(1, 2), 0])


def test_linked_checks_both_ranks_before_integrality():
    with pytest.raises(DomainError, match=r"weight \[1\] has wrong rank"):
        affine.linked(A2, [Fraction(1, 2), 0], [1], P5)


def test_contract_table_covers_every_public_weight_function():
    covered = {fn for fn, _, _ in CONTRACT}
    missing, unclassified = [], set()
    for name in afftrans.__all__:
        obj = getattr(afftrans, name)
        if isinstance(obj, type) or not callable(obj):
            continue
        params = set(inspect.signature(obj).parameters)
        unclassified |= params - WEIGHT_PARAMS - OTHER_PARAMS
        if params & WEIGHT_PARAMS and obj not in covered:
            missing.append(name)
    # A new parameter name must be classified before the check can trust it.
    assert not unclassified
    assert not missing


# ---------------------------------------------------------------------------
# the public group-element contract

# Every public function that takes a group element (``afftrans.__all__``
# plus the ``weyl`` and ``affine`` helpers that act with one): valid keyword
# arguments on A2 at P5, and its group-element parameters.  ``coeffs`` is
# spoiled in its keys, ``generators`` in its members.
ELEMENT_CONTRACT = [
    (weyl.apply, dict(w=IDENTITY, lam=OK), "w"),
    (weyl.compose, dict(w=IDENTITY, v=IDENTITY), "w v"),
    (weyl.inverse, dict(w=IDENTITY), "w"),
    (affine.finite_element, dict(w=IDENTITY), "w"),
    (affine.affine_apply, dict(g=G, lam=OK, level=P5), "g"),
    (affine.compose_affine, dict(g=G, h=G), "g h"),
    (affine.inverse_affine, dict(g=G), "g"),
    (affine.translation_lattice_coords, dict(g=G, level=P5), "g"),
    (translate.translate_weyl, dict(g=G, mu=ZERO, lam=OK, level=P5), "g"),
    (translate.translate_verma, dict(g=G, mu=ZERO, lam=OK, level=P5), "g"),
    (translate.verify_weight_geometry,
     dict(lam=OK, mu=ZERO, g=G, level=P5, bound=40), "g"),
    (translate.make_character, dict(base=ZERO, coeffs={G: 1}, level=P5), "coeffs"),
    (annihilator.make_labels, dict(base=ZERO, generators=[], level=P5), "generators"),
]
ELEMENT_PARAMS = {"g", "h", "w", "v", "coeffs", "generators"}
# (spoiled value, the name the error gives it) where it is not the parameter
SPOILED = {"coeffs": ({"e": 1}, "key"), "generators": (["e"], "generator")}


def _element_cells():
    return [pytest.param(fn, valid, param, id=f"{fn.__name__}-{param}")
            for fn, valid, params in ELEMENT_CONTRACT for param in params.split()]


def test_element_contract_rows_are_valid_calls():
    for fn, valid, _ in ELEMENT_CONTRACT:
        fn(A2, **valid)


@pytest.mark.parametrize("fn,valid,param", _element_cells())
def test_non_element_is_domain_error_naming_the_argument(fn, valid, param):
    bad, name = SPOILED.get(param, ("e", param))
    with pytest.raises(DomainError, match=f"^{name} is a str, not an? (Affine)?WeylElement$"):
        _spoiled(fn, valid, param, bad)


@pytest.mark.parametrize("fn,valid,param", [
    cell for cell in _element_cells() if cell.values[2] in ("g", "h")])
def test_non_weyl_finite_part_is_domain_error(fn, valid, param):
    bad = AffineWeylElement(ZERO, (0,))
    with pytest.raises(DomainError,
                       match=f"^finite part of {param} is a tuple, not a WeylElement$"):
        _spoiled(fn, valid, param, bad)


def _element_with(param, finite, translation=ZERO):
    """``param``'s value holding the affine element ``(translation, finite)``,
    or ``finite`` itself for a finite-element parameter."""
    if param in ("w", "v"):
        return finite
    g = AffineWeylElement(translation, finite)
    return {g: 1} if param == "coeffs" else [g] if param == "generators" else g


@pytest.mark.parametrize("fn,valid,param", [
    cell for cell in _element_cells() if cell.values[0] is not affine.translation_lattice_coords])
def test_bad_word_letter_is_domain_error(fn, valid, param):
    # translation_lattice_coords never reads the word; a bool is no letter
    for letter, fault in ((7, r" outside 0\.\.1 for A2"), (True, ", which is not an int")):
        message = rf"^Weyl word \({letter},\) has letter {letter}{fault}$"
        with pytest.raises(DomainError, match=message):
            _spoiled(fn, valid, param, _element_with(param, WeylElement((letter,))))


@pytest.mark.parametrize("fn,valid,param", [
    cell for cell in _element_cells() if cell.values[0] is not affine.translation_lattice_coords])
def test_non_sequence_word_is_domain_error(fn, valid, param):
    # a word that is no sequence is refused before any letter is read
    for word in (5, None):
        with pytest.raises(DomainError, match=rf"^Weyl word {word} is not a sequence of letters$"):
            _spoiled(fn, valid, param, _element_with(param, WeylElement(word)))


@pytest.mark.parametrize("fn,valid,param", [
    cell for cell in _element_cells() if cell.values[2] not in ("w", "v")])
def test_wrong_rank_translation_is_domain_error_naming_the_argument(fn, valid, param):
    name = SPOILED.get(param, (None, param))[1]
    with pytest.raises(DomainError,
                       match=fr"^translation of {name} \[0\] has wrong rank for A2$"):
        _spoiled(fn, valid, param, _element_with(param, IDENTITY, Weight([0])))


def test_make_labels_refuses_a_non_collection():
    collection = "generators must be a collection of group elements, got "
    for bad, message in ((5, collection + "an int"),
                         ([[G]], f"generator {re.escape(repr([G]))} is unhashable"),
                         (None, collection + "a NoneType")):
        # not iterable, an unhashable member, not iterable; transport reads a
        # hand-built record's generators through the same refusal
        with pytest.raises(DomainError, match=f"^{message}$"):
            annihilator.make_labels(A2, ZERO, bad, P5)
        with pytest.raises(DomainError, match=f"^{message}$"):
            annihilator.transport(A2, annihilator.SubmoduleLabels(ZERO, P5, bad), OK)


def test_element_table_covers_every_public_element_function():
    covered = {fn for fn, _, _ in ELEMENT_CONTRACT}
    missing = [name for name in afftrans.__all__
               if callable(obj := getattr(afftrans, name)) and not isinstance(obj, type)
               and set(inspect.signature(obj).parameters) & ELEMENT_PARAMS
               and obj not in covered]
    assert not missing


# ---------------------------------------------------------------------------
# the public level and record contract

# Every public function that takes a level (``afftrans.__all__`` plus
# ``affine.translation_lattice_coords``): valid keyword arguments on A2 at P5.
LEVEL_CONTRACT = [
    (affine.translation_lattice_coords, dict(g=G, level=P5)),
    (affine.affine_apply, dict(g=G, lam=OK, level=P5)),
    (affine.theta_wall_reflection, dict(level=P5)),
    (affine.in_fundamental_alcove, dict(lam=OK, level=P5)),
    (affine.is_regular, dict(lam=OK, level=P5)),
    (affine.alcove_rep, dict(lam=OK, level=P5)),
    (affine.linked, dict(lam=OK, mu=ZERO, level=P5)),
    (affine.enumerate_dominant, dict(level=P5)),
    (affine.dominant_orbit, dict(lam=OK, level=P5, bound=10)),
    (translate.check_datum, dict(lam_left=OK, lam_right=OK, lam=ZERO, level=P5)),
    (translate.project_linkage, dict(parts={}, target=OK, level=P5)),
    (translate.translate_weyl, dict(g=G, mu=ZERO, lam=OK, level=P5)),
    (translate.translate_verma, dict(g=G, mu=ZERO, lam=OK, level=P5)),
    (translate.verify_weight_geometry, dict(lam=OK, mu=ZERO, g=G, level=P5, bound=40)),
    (translate.make_character, dict(base=OK, coeffs={}, level=P5)),
    (annihilator.make_labels, dict(base=OK, generators=[], level=P5)),
    (annihilator.admissible_list, dict(level=P5)),
    (annihilator.singular_generator_label, dict(level=P5)),
]


def test_level_contract_rows_are_valid_calls():
    for fn, valid in LEVEL_CONTRACT:
        fn(A2, **valid)


@pytest.mark.parametrize("fn,valid", [pytest.param(fn, valid, id=fn.__name__)
                                      for fn, valid in LEVEL_CONTRACT])
def test_non_level_is_domain_error_naming_the_argument(fn, valid):
    for bad, found in ((5, "an int"), ([5], "a list"),  # [5]: unhashable, before any cache
                       ("5/1", "a str"), (Fraction(5), "a Fraction")):
        with pytest.raises(DomainError, match=f"^level is {found}, not a Level$"):
            _spoiled(fn, valid, "level", bad)


def test_level_table_covers_every_public_level_function():
    covered = {fn for fn, _ in LEVEL_CONTRACT}
    missing = [name for name in afftrans.__all__
               if callable(obj := getattr(afftrans, name)) and not isinstance(obj, type)
               and "level" in inspect.signature(obj).parameters and obj not in covered]
    assert not missing


# ---------------------------------------------------------------------------
# the public integer-argument contract

CHI = translate.make_character(A2, ZERO, {}, P5)
LABELS = annihilator.make_labels(A2, ZERO, [], P5)

# Every public function that takes a count (``afftrans.__all__`` plus
# ``weyl.enumerate_elements``) but ``identity_element``, whose rank is
# checked below: valid keyword arguments on A2 at P5, and its counts.
INT_CONTRACT = [
    (weyl.enumerate_elements, dict(max_size=10), "max_size"),
    (affine.dominant_orbit, dict(lam=OK, level=P5, bound=10), "bound"),
    (finchar.weight_multiplicities, dict(lam=OK, cap=10), "cap"),
    (finchar.tensor_decompose, dict(lam=OK, mu=ZERO, cap=10), "cap"),
    (finchar.tensor_oracle, dict(lam=OK, mu=ZERO, cap=10), "cap"),
    (translate.kl_weyl_filtration, dict(lam=OK, mu=ZERO, cap=10), "cap"),
    (translate.verma_filtration, dict(lam=OK, mu=ZERO, cap=10), "cap"),
    (translate.translate_weyl, dict(g=G, mu=ZERO, lam=OK, level=P5, cap=10), "cap"),
    (translate.translate_verma, dict(g=G, mu=ZERO, lam=OK, level=P5, cap=10), "cap"),
    (translate.verify_weight_geometry,
     dict(lam=OK, mu=ZERO, g=G, level=P5, bound=40), "bound"),
    (annihilator.transport, dict(labels=LABELS, lam=OK, cap=10), "cap"),
]
INT_PARAMS = {"cap", "bound", "max_size", "rank"}
NO_LIMIT = {(weyl.enumerate_elements, "max_size"), (affine.dominant_orbit, "bound")}


def test_int_contract_rows_are_valid_calls():
    for fn, valid, param in INT_CONTRACT:
        fn(A2, **valid)
        if (fn, param) in NO_LIMIT:
            fn(A2, **{**valid, param: None})


@pytest.mark.parametrize("fn,valid,param", [
    pytest.param(fn, valid, param, id=fn.__name__) for fn, valid, param in INT_CONTRACT])
def test_non_int_count_is_domain_error_naming_the_argument(fn, valid, param):
    bads = [(True, "a bool"), (10.5, "a float"), ("20", "a str"), (Fraction(10), "a Fraction")]
    if (fn, param) not in NO_LIMIT:
        bads.append((None, "a NoneType"))
    for bad, found in bads:
        with pytest.raises(DomainError, match=f"^{param} is {found}, not an int$"):
            _spoiled(fn, valid, param, bad)


def test_int_table_covers_every_public_count_function():
    covered = {fn for fn, _, _ in INT_CONTRACT} | {identity_element}
    missing = [name for name in afftrans.__all__
               if callable(obj := getattr(afftrans, name)) and not isinstance(obj, type)
               and set(inspect.signature(obj).parameters) & INT_PARAMS
               and obj not in covered]
    assert not missing


@pytest.mark.parametrize("fn,valid,param,cls", [
    (translate.translate_character, dict(chi=CHI, lam=OK), "chi", "LinkageCharacter"),
    (translate.round_trip_check, dict(chi=CHI, lam=OK), "chi", "LinkageCharacter"),
    (annihilator.transport, dict(labels=LABELS, lam=OK), "labels", "SubmoduleLabels"),
])
def test_non_record_is_domain_error_naming_the_argument(fn, valid, param, cls):
    other = (LABELS, "a SubmoduleLabels") if param == "chi" else (CHI, "a LinkageCharacter")
    for bad, found in (("x", "a str"), (5, "an int"), other):
        with pytest.raises(DomainError, match=f"^{param} is {found}, not a {cls}$"):
            _spoiled(fn, valid, param, bad)


def test_record_holding_a_non_level_is_domain_error():
    with pytest.raises(DomainError, match="^level is an int, not a Level$"):
        translate.translate_character(A2, translate.LinkageCharacter(5, ZERO, {}), OK)
    with pytest.raises(DomainError, match="^level is an int, not a Level$"):
        annihilator.transport(A2, annihilator.SubmoduleLabels(ZERO, 5, frozenset()), OK)


def test_open_alcove_membership_does_not_imply_regular():
    # B2 at p=5: [0,2]+rho pairs to 5 on a short positive root while staying
    # strictly inside the alcove, whose walls only see theta
    b2 = root_system("B2")
    level = Level(5, 1)
    lam = Weight([0, 2])
    assert affine.in_fundamental_alcove(b2, lam, level)
    assert not affine.is_regular(b2, lam, level)
    rep, g, regular = affine.alcove_rep(b2, lam, level)
    assert (rep, g.is_identity, regular) == (lam, True, False)


def _alcove_check(rs, lam, regular):
    return lambda level: affine._as_alcove_weight(rs, lam, level, "lam", regular=regular)


# (check at a level, accepting level, refusing level, refusal): one key
# (root system, weight, p) of the memoized alcove and lattice tests each
WARM_CACHE_PAIRS = [
    (_alcove_check(root_system("B2"), [0, 2], True), Level(7, 1), Level(5, 1),
     "lam [0,2] is singular at level 5/1"),
    (_alcove_check(A2, [1, 1], False), Level(5, 1), Level(4, 1),
     "lam [1,1] is not strictly inside the fundamental alcove at level 4/1"),
    (lambda level: affine.affine_apply(A1, translation_element(A1, [10]), [0], level),
     Level(5, 1), Level(7, 1), "translation [10] is not in 7Q^vee (root coords (5,))"),
]


@pytest.mark.parametrize("accepted_first", [True, False], ids=["accept-first", "refuse-first"])
@pytest.mark.parametrize("check,accepts,refuses,message", WARM_CACHE_PAIRS,
                         ids=["B2-singular", "A2-outside", "A1-off-lattice"])
def test_memoized_checks_answer_each_level_in_either_order(check, accepts, refuses, message,
                                                           accepted_first):
    affine._alcove_flags.cache_clear()
    affine._in_coroot_lattice.cache_clear()
    for level in (accepts, refuses) if accepted_first else (refuses, accepts):
        for _ in range(2):  # cold, then warm
            if level is accepts:
                check(level)
            else:
                with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                    check(level)


# The caches keyed by a word: the finite part of affine._dot and the element of
# weyl.canonical_from_word.  Every row of the element table that reaches them.
WORD_CACHES = (affine._finite_dot, weyl._canonical)
WALKS_NO_WORD_CACHE = (weyl.apply, affine.finite_element, affine.translation_lattice_coords)


def _outcome(fn, valid, param, word):
    """``fn``'s answer for the element spelled by ``word``, or its refusal's text."""
    try:
        return _spoiled(fn, valid, param, _element_with(param, WeylElement(word)))
    except DomainError as exc:
        return f"refused: {exc}"


@pytest.mark.parametrize("fn,valid,param", [
    cell for cell in _element_cells() if cell.values[0] not in WALKS_NO_WORD_CACHE])
def test_word_caches_answer_only_what_the_walk_would(fn, valid, param):
    for cache in WORD_CACHES:
        cache.cache_clear()
    answer = _outcome(fn, valid, param, (1,))
    assert any(cache.cache_info().currsize for cache in WORD_CACHES)
    for _ in range(2):  # warm, twice: a refusal leaves no entry
        # True == 1 and hashes alike, but is no letter
        assert _outcome(fn, valid, param, (True,)) == (
            "refused: Weyl word (True,) has letter True, which is not an int")
        assert _outcome(fn, valid, param, (7,)) == (
            "refused: Weyl word (7,) has letter 7 outside 0..1 for A2")
        if param not in ("coeffs", "generators"):  # a key or member with a list word is unhashable
            assert _outcome(fn, valid, param, [1]) == answer


def test_dot_of_a_rational_weight_is_a_checked_weight():
    g = AffineWeylElement(ZERO, WeylElement((1,)))
    affine._finite_dot.cache_clear()
    affine.affine_apply(A2, g, [1, 1], P5)  # the integral weight warms the cache
    for _ in range(2):
        image = affine.affine_apply(A2, g, [Fraction(1, 2), Fraction(1, 2)], P5)
        # s2 . [1/2,1/2] = [2,-5/2], its 2 stored as an int
        assert type(image) is Weight and image == (2, Fraction(-5, 2)) and type(image[0]) is int
    assert affine._finite_dot.cache_info().currsize == 1


# ---------------------------------------------------------------------------
# enumeration and linkage


def test_enumerate_dominant_examples():
    assert affine.enumerate_dominant(A1, P5) == tuple(
        Weight([m]) for m in range(4))
    assert affine.enumerate_dominant(A2, Level(4, 1)) == (
        Weight([0, 0]), Weight([0, 1]), Weight([1, 0]))
    assert affine.enumerate_dominant(A1, Level(1, 1)) == ()


def test_enumerate_dominant_counts_a1():
    for p in range(1, 51):
        level = Level(p, 1)
        assert len(affine.enumerate_dominant(A1, level)) == p - 1


HUGE = 99999999999999999999


def test_huge_box_is_refused_with_its_cell_count():
    # each axis is counted before it is walked, so no range overflows
    with pytest.raises(DomainError, match=f"number at least {HUGE}, "):
        affine.dominant_orbit(A1, [0], P5, HUGE)
    with pytest.raises(DomainError, match="above the cap of 10000000"):
        affine.enumerate_dominant(A2, Level(HUGE, 1))
    with pytest.raises(DomainError, match="dominant weights up to height"):
        annihilator.admissible_list(A2, Level(HUGE, 1))
    # exactly the cap is still walked (lazily: take the first weight)
    cap = affine._DOMINANT_BOX_CAP
    assert next(affine._dominant_box(A1, cap)) == (0,)
    with pytest.raises(DomainError, match=f"number at least {cap + 1}, "):
        next(affine._dominant_box(A1, cap + 1))


def test_enumerate_dominant_is_sorted_and_in_alcove():
    b2 = root_system("B2")
    level = Level(7, 2)
    ws = affine.enumerate_dominant(b2, level)
    assert list(ws) == sorted(ws)
    for w in ws:
        assert affine.in_fundamental_alcove(b2, w, level)


def test_linked_examples():
    assert affine.linked(A1, Weight([0]), Weight([8]), P5)
    assert not affine.linked(A1, Weight([0]), Weight([2]), P5)
    assert affine.linked(A1, Weight([3]), Weight([3]), P5)


def test_linked_is_an_equivalence():
    weights = [Weight([m]) for m in range(-10, 21)]
    classes = {}
    for w in weights:
        rep, _, _ = affine.alcove_rep(A1, w, P5)
        classes.setdefault(rep, []).append(w)
    for a in weights:
        for b in weights:
            same = any(a in c and b in c for c in classes.values())
            assert affine.linked(A1, a, b, P5) == same


def test_dominant_orbit_examples():
    got = affine.dominant_orbit(A1, Weight([0]), P5, bound=25)
    assert [w for _, w in got] == [Weight([m]) for m in (0, 8, 10, 18, 20)]
    got = affine.dominant_orbit(A1, Weight([2]), P5, bound=25)
    assert [w for _, w in got] == [Weight([m]) for m in (2, 6, 12, 16, 22)]
    got = affine.dominant_orbit(A2, Weight([0, 0]), Level(4, 1), bound=2)
    assert [w for _, w in got] == [Weight([0, 0])]


def test_dominant_orbit_elements_act_correctly():
    for base in (Weight([0]), Weight([2])):
        for g, w in affine.dominant_orbit(A1, base, P5, bound=40):
            assert affine.affine_apply(A1, g, base, P5) == w
            assert w.is_dominant
            assert affine.linked(A1, base, w, P5)


def test_dominant_orbit_default_bound():
    # default bound is (lam + rho, theta) + 4p = 1 + 20
    explicit = affine.dominant_orbit(A1, Weight([0]), P5, bound=21)
    assert affine.dominant_orbit(A1, Weight([0]), P5) == explicit


def test_dominant_orbit_needs_interior_base():
    with pytest.raises(DomainError):
        affine.dominant_orbit(A1, Weight([4]), P5, bound=20)  # on the wall
    with pytest.raises(DomainError):
        affine.dominant_orbit(A1, Weight([-1]), P5, bound=20)


def test_dominant_orbit_a2_is_linked_and_complete():
    level = Level(4, 1)
    base = Weight([1, 0])
    got = affine.dominant_orbit(A2, base, level, bound=12)
    weights = [w for _, w in got]
    assert len(set(weights)) == len(weights)
    # brute force the same set directly from the linkage relation
    expected = []
    for a in range(13):
        for b in range(13):
            w = Weight([a, b])
            height = sum(r * (c + 1) for r, c in zip(A2.coroot_rows[-1], w))
            if height <= 12 and affine.linked(A2, w, base, level):
                expected.append(w)
    assert weights == sorted(expected)


def test_theta_wall_reflection():
    g = affine.theta_wall_reflection(A1, P5)
    assert g.translation == Weight([10]) and g.finite == WeylElement((0,))
    assert affine.affine_apply(A1, g, Weight([0]), P5) == Weight([8])
    # involution within the group
    assert compose_affine(A1, g, g).is_identity


def test_identity_element_properties():
    e = identity_element(2)
    assert e.is_identity
    assert e.finite == IDENTITY
    assert not AffineWeylElement(Weight([0, 0]), WeylElement((0,))).is_identity


def test_identity_element_of_a_non_rank_is_domain_error():
    with pytest.raises(DomainError, match="^rank is a NoneType, not an int$"):
        identity_element(None)


@pytest.mark.parametrize("bad,message", [
    (True, "rank is a bool, not an int"), (2.0, "rank is a float, not an int"),
    (0, "rank 0 is not positive"), (-1, "rank -1 is not positive")])
def test_identity_element_of_a_non_positive_int_is_domain_error(bad, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        identity_element(bad)


def test_identity_element_of_a_rank_beyond_any_tuple_is_domain_error():
    # refused on the bound, before a tuple of zeros is asked for
    with pytest.raises(DomainError, match=f"^rank {10 ** 30} is too large$"):
        identity_element(10 ** 30)


# ---------------------------------------------------------------------------
# the alcove's special automorphisms (Omega = P^vee / Q^vee), read off the
# Cartan data by tests/oracles.py, never from the library's walk

OMEGA_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"]


def _omegas(name):
    return oracles.alcove_automorphisms(oracles.cartan_matrix(name[0], int(name[1:])))


# finite parts found by trying every (i, w in W) on the open alcove at 5/1 and
# 7/1 (A2 and D4 at 7/1); words are 1-based, D4 only counted
@pytest.mark.parametrize("name, words", [
    ("A2", [(1, 2), (2, 1)]), ("B2", [(1, 2, 1)]), ("B3", [(1, 2, 3, 2, 1)]),
    ("C3", [(3, 2, 1, 3, 2, 3)]), ("D4", 3), ("G2", [])])
def test_alcove_automorphisms_match_the_brute_force_list(name, words):
    cartan = oracles.cartan_matrix(name[0], int(name[1:]))
    found = {w for _, w in _omegas(name)}
    if isinstance(words, int):
        assert len(found) == len(_omegas(name)) == words
    else:
        assert found == {oracles.word_matrix(cartan, [i - 1 for i in word]) for word in words}


@pytest.mark.parametrize("name", OMEGA_TYPES)
def test_alcove_sets_are_omega_stable(name):
    rs = root_system(name)
    for p in range(rs.dual_coxeter + 1, rs.dual_coxeter + 7):
        level = Level(p, 1)
        alcove = affine.enumerate_dominant(rs, level)
        admissible = annihilator.admissible_list(rs, level)
        for omega in _omegas(name):
            assert {oracles.apply_automorphism(omega, p, w) for w in alcove} == set(alcove)
            assert {oracles.apply_automorphism(omega, p, w) for w in admissible} == \
                set(admissible)


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_linkage_and_the_alcove_walk_commute_with_omega(data):
    name = data.draw(st.sampled_from(OMEGA_TYPES))
    rs, omegas = root_system(name), _omegas(name)
    if not omegas:  # G2: nothing to commute with
        return
    omega = data.draw(st.sampled_from(omegas))
    level = Level(data.draw(st.integers(rs.dual_coxeter + 1, rs.dual_coxeter + 6)), 1)
    weights = st.lists(st.integers(-8, 12), min_size=rs.rank, max_size=rs.rank)
    lam, nu = Weight(data.draw(weights)), Weight(data.draw(weights))
    rep, _, _ = affine.alcove_rep(rs, lam, level)
    if data.draw(st.booleans()):  # a weight linked to lam: nu's element applied to rep
        mu = affine.affine_apply(rs, affine.alcove_rep(rs, nu, level)[1], rep, level)
    else:
        mu = nu

    def act(wt):
        return oracles.apply_automorphism(omega, level.p, wt)

    assert affine.is_regular(rs, act(lam), level) == affine.is_regular(rs, lam, level)
    assert affine.linked(rs, act(lam), act(mu), level) == affine.linked(rs, lam, mu, level)
    assert affine.alcove_rep(rs, act(lam), level)[0] == act(rep)


# ROADMAP item 16's larger types, for the same three properties
LARGE_OMEGA_TYPES = ["A5", "B4", "C2", "C4", "D5", "E6"]


@pytest.mark.parametrize("name", LARGE_OMEGA_TYPES)
def test_alcove_sets_are_omega_stable_on_larger_types(name):
    test_alcove_sets_are_omega_stable(name)  # the same check, at the same levels


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_linkage_and_the_alcove_walk_commute_with_omega_on_larger_types(data):
    name = data.draw(st.sampled_from(LARGE_OMEGA_TYPES))
    rs = root_system(name)
    omega = data.draw(st.sampled_from(_omegas(name)))
    level = Level(data.draw(st.integers(rs.dual_coxeter + 1, rs.dual_coxeter + 6)), 1)
    weights = st.lists(st.integers(-8, 12), min_size=rs.rank, max_size=rs.rank)
    lam, nu = Weight(data.draw(weights)), Weight(data.draw(weights))
    rep, _, _ = affine.alcove_rep(rs, lam, level)
    if data.draw(st.booleans()):  # a weight linked to lam: nu's element applied to rep
        mu = affine.affine_apply(rs, affine.alcove_rep(rs, nu, level)[1], rep, level)
    else:
        mu = nu

    def act(wt):
        return oracles.apply_automorphism(omega, level.p, wt)

    assert affine.is_regular(rs, act(lam), level) == affine.is_regular(rs, lam, level)
    assert affine.linked(rs, act(lam), act(mu), level) == affine.linked(rs, lam, mu, level)
    assert affine.alcove_rep(rs, act(lam), level)[0] == act(rep)


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_translation_commutes_with_omega(data):
    # omega normalises the walk's group, so omega g omega^-1 sends omega mu, which is in
    # the open alcove, to omega (g . mu): it is the element alcove_rep finds there.
    # translate_verma asks no dominance of its label, so any g of the group will do.
    name = data.draw(st.sampled_from(["A2", "B2", "C3"]))
    rs = root_system(name)
    omega = data.draw(st.sampled_from(_omegas(name)))
    # from h^vee + 2: C3 at 5/1 lists no admissible weight (ROADMAP item 2's walls)
    level = Level(data.draw(st.integers(rs.dual_coxeter + 2, rs.dual_coxeter + 6)), 1)
    admissible = annihilator.admissible_list(rs, level)
    mu, lam = data.draw(st.sampled_from(admissible)), data.draw(st.sampled_from(admissible))
    nu = data.draw(st.lists(st.integers(-8, 12), min_size=rs.rank, max_size=rs.rank))
    g = affine.alcove_rep(rs, nu, level)[1]

    def act(wt):
        return Weight(oracles.apply_automorphism(omega, level.p, wt))

    rep, g_omega, _ = affine.alcove_rep(rs, act(affine.affine_apply(rs, g, mu, level)), level)
    assert rep == act(mu)
    assert translate.translate_verma(rs, g_omega, act(mu), act(lam), level) == \
        act(affine.affine_apply(rs, g, lam, level))

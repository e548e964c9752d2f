"""Translation data, label translation, character re-keying, Verma extension."""

from __future__ import annotations

import functools
import itertools
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afftrans
import oracles
from afftrans import affine, annihilator, finchar, rootsys, translate, weyl
from afftrans.affine import AffineWeylElement, Level
from afftrans.errors import (
    DatumInvalidError,
    DimensionCapError,
    DomainError,
    InternalInconsistencyError,
)
from afftrans.rootsys import Weight, root_system
from afftrans.translate import LinkageCharacter
from afftrans.weyl import IDENTITY, WeylElement

A1 = root_system("A1")
A2 = root_system("A2")
P5 = Level(5, 1)
P4 = Level(4, 1)

E1 = affine.identity_element(1)
SAFF = affine.theta_wall_reflection(A1, P5)  # dot-sends 0 to 8 at p=5


# ---------------------------------------------------------------------------
# translation data


def test_check_datum_valid():
    datum = translate.check_datum(A1, Weight([2]), Weight([2]), Weight([0]), P5)
    assert (datum.lam_left, datum.lam_right, datum.lam) == (
        Weight([2]), Weight([2]), Weight([0]))
    assert datum.level == P5


def test_check_datum_trivial_case():
    # (lam, lam, 0): the difference lam - 0 is trivially in the orbit of lam
    translate.check_datum(A1, Weight([3]), Weight([3]), Weight([0]), P5)
    translate.check_datum(A2, Weight([1, 0]), Weight([1, 0]), Weight([0, 0]), P4)


def test_check_datum_orbit_failure():
    with pytest.raises(DatumInvalidError, match=r"difference \[-1\]"):
        translate.check_datum(A1, Weight([1]), Weight([2]), Weight([2]), P5)


def test_check_datum_alcove_failure():
    with pytest.raises(DatumInvalidError, match=r"lam_left \[4\]"):
        translate.check_datum(A1, Weight([4]), Weight([0]), Weight([0]), P5)
    with pytest.raises(DatumInvalidError, match="lam_right"):
        translate.check_datum(A1, Weight([2]), Weight([-1]), Weight([0]), P5)


def test_translation_weight():
    assert translate.translation_weight(A1, Weight([0]), Weight([2])) == Weight([2])
    assert translate.translation_weight(A2, Weight([0, 0]), Weight([1, 0])) == Weight([0, 1])
    assert translate.translation_weight(A2, Weight([2, 1]), Weight([2, 1])) == Weight([0, 0])


# ---------------------------------------------------------------------------
# filtration and projection


def test_kl_weyl_filtration_examples():
    assert translate.kl_weyl_filtration(A1, Weight([2]), Weight([8])) == {
        Weight([6]): 1, Weight([8]): 1, Weight([10]): 1}
    assert translate.kl_weyl_filtration(A1, Weight([0]), Weight([7])) == {
        Weight([7]): 1}
    assert translate.kl_weyl_filtration(A2, Weight([1, 0]), Weight([0, 1])) == {
        Weight([0, 0]): 1, Weight([1, 1]): 1}


def test_kl_weyl_filtration_is_the_tensor_decomposition():
    rng = random.Random(101)
    for _ in range(10):
        lam = Weight([rng.randint(0, 4)])
        mu = Weight([rng.randint(0, 4)])
        assert translate.kl_weyl_filtration(A1, lam, mu) == \
            finchar.tensor_decompose(A1, lam, mu)


def test_project_linkage_examples():
    parts = {Weight([6]): 1, Weight([8]): 1, Weight([10]): 1}
    assert translate.project_linkage(A1, parts, Weight([2]), P5) == {Weight([6]): 1}
    assert translate.project_linkage(A1, parts, Weight([0]), P5) == {
        Weight([8]): 1, Weight([10]): 1}
    assert translate.project_linkage(A1, {}, Weight([2]), P5) == {}


def test_project_linkage_requires_interior_target():
    with pytest.raises(DomainError):
        translate.project_linkage(A1, {}, Weight([4]), P5)  # on the wall


def test_project_linkage_of_non_dict_parts_is_domain_error():
    with pytest.raises(DomainError, match="^parts is a NoneType, not a dict$"):
        translate.project_linkage(A2, None, Weight([0, 0]), P5)


# ---------------------------------------------------------------------------
# label translation


def test_translate_weyl_examples():
    assert translate.translate_weyl(A1, SAFF, Weight([0]), Weight([2]), P5) == Weight([6])
    assert translate.translate_weyl(A1, E1, Weight([0]), Weight([3]), P5) == Weight([3])
    # reverse direction: the element sending 2 to 6 sends 0 to 8
    _, g, _ = affine.alcove_rep(A1, Weight([6]), P5)
    assert affine.affine_apply(A1, g, Weight([2]), P5) == Weight([6])
    assert translate.translate_weyl(A1, g, Weight([2]), Weight([0]), P5) == Weight([8])


def test_translate_weyl_requires_regular_alcove_weights():
    with pytest.raises(DomainError):
        translate.translate_weyl(A1, E1, Weight([4]), Weight([2]), P5)  # wall
    with pytest.raises(DomainError):
        translate.translate_weyl(A1, E1, Weight([0]), Weight([5]), P5)  # outside


def test_translate_weyl_requires_dominant_start():
    finite_s = affine.finite_element(A1, WeylElement((0,)))  # s . 0 = -2
    with pytest.raises(DomainError, match="not dominant"):
        translate.translate_weyl(A1, finite_s, Weight([0]), Weight([2]), P5)


def test_translate_weyl_a2():
    level = P4
    base = Weight([0, 1])
    for g, w in affine.dominant_orbit(A2, base, level, bound=14):
        assert translate.translate_weyl(A2, g, base, Weight([1, 0]), level) == \
            affine.affine_apply(A2, g, Weight([1, 0]), level)
        assert w == affine.affine_apply(A2, g, base, level)


# ---------------------------------------------------------------------------
# the weight-geometry sweep


def test_verify_weight_geometry_examples():
    assert translate.verify_weight_geometry(A1, Weight([2]), Weight([0]), E1, P5, 20)
    assert translate.verify_weight_geometry(A1, Weight([2]), Weight([0]), SAFF, P5, 20)
    assert translate.verify_weight_geometry(
        A2, Weight([1, 0]), Weight([0, 1]), affine.identity_element(2), P4, 16)


def test_verify_weight_geometry_bound_guard():
    with pytest.raises(DomainError, match="does not cover"):
        translate.verify_weight_geometry(A1, Weight([2]), Weight([0]), SAFF, P5, 3)


def _verify_by_oracle(rs, lam, mu, g, level):
    """The oracle's pair-by-pair sweep, every root coordinate of beta taken mod p (pQ)."""
    cartan = oracles.cartan_matrix(rs.spec.series, rs.rank)
    return oracles.verify_oracle(cartan, lam, mu, g.translation, g.finite.word,
                                 (level.p,) * rs.rank)


@pytest.mark.parametrize("name,p", [("A2", 5), ("B2", 7), ("G2", 8), ("B3", 7), ("C3", 6)])
def test_verify_weight_geometry_matches_the_pairwise_sweep(name, p):
    rs, level = root_system(name), Level(p, 1)
    alcove = [w for w in affine.enumerate_dominant(rs, level)
              if affine.is_regular(rs, w, level)]
    verdicts = set()
    for mu in alcove[:3]:
        gs = [g for g, _ in affine.dominant_orbit(rs, mu, level, bound=4 * p)[:3]]
        for lam in alcove:
            for g in gs:
                got = translate.verify_weight_geometry(rs, lam, mu, g, level, 4 * p)
                assert got == _verify_by_oracle(rs, lam, mu, g, level)
                verdicts.add(got)
    # False verdicts on B2, B3, C3 and G2 are the known non-simply-laced lattice defect
    assert verdicts == ({True} if rs.is_simply_laced else {True, False})


VERIFY_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"]


@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_verify_weight_geometry_matches_the_oracle(data):
    rs = root_system(data.draw(st.sampled_from(VERIFY_TYPES)))
    # from h^vee + 2 on, each of these types has a regular weight in the alcove
    level = Level(data.draw(st.integers(rs.dual_coxeter + 2, rs.dual_coxeter + 3)), 1)
    regular = annihilator.admissible_list(rs, level)
    mu, lam = data.draw(st.sampled_from(regular)), data.draw(st.sampled_from(regular))
    bound = 3 * level.p
    g, _ = data.draw(st.sampled_from(affine.dominant_orbit(rs, mu, level, bound=bound)))
    if data.draw(st.booleans()):
        g = _respell(data.draw, rs, g)  # s_i s_i spliced in: not the canonical word
    assert translate.verify_weight_geometry(rs, lam, mu, g, level, bound) == \
        _verify_by_oracle(rs, lam, mu, g, level)


def test_verify_weight_geometry_walks_the_group_once(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the group is enumerated per call")

    calls = []
    counted = translate._residue
    monkeypatch.setattr(weyl, "enumerate_elements", refuse)
    monkeypatch.setattr(translate, "_residue",
                        lambda rs, wt, p: calls.append(wt) or counted(rs, wt, p))
    lam, mu = Weight([1, 0]), Weight([0, 1])
    assert translate.verify_weight_geometry(
        A2, lam, mu, affine.identity_element(2), P4, 16)
    support = finchar.weight_multiplicities(A2, translate.translation_weight(A2, lam, mu))
    assert len(calls) == 6 + len(support)  # one residue per group element and weight


# ---------------------------------------------------------------------------
# characters


# s1s2s1 and s2s1s2 spell one element, the longest element of A2's Weyl group
W0_SPELLINGS = [AffineWeylElement(Weight([5, 5]), WeylElement(word))
                for word in ((0, 1, 0), (1, 0, 1))]


@pytest.mark.parametrize("g", W0_SPELLINGS, ids=["s1s2s1", "s2s1s2"])
def test_verify_weight_geometry_reads_any_spelling(g):
    assert translate.verify_weight_geometry(
        A2, Weight([0, 0]), Weight([0, 0]), g, P5, 20)


def test_verify_weight_geometry_spells_no_group_element(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a group element is spelled")

    monkeypatch.setattr(weyl, "_word_of", refuse)
    monkeypatch.setattr(weyl, "canonical_from_word", refuse)
    P7, g = Level(7, 1), AffineWeylElement(Weight([0, 14]), WeylElement((1, 0, 1)))
    assert translate.verify_weight_geometry(B2, Weight([1, 0]), Weight([0, 0]), g, P7, 28)
    assert not translate.verify_weight_geometry(B2, Weight([2, 1]), Weight([0, 0]), g, P7, 28)
    for g in W0_SPELLINGS:
        assert translate.verify_weight_geometry(A2, Weight([0, 0]), Weight([0, 0]), g, P5, 20)


def test_make_character_stores_the_canonical_spelling():
    canonical, other = W0_SPELLINGS
    chi = translate.make_character(A2, Weight([0, 0]), {other: 1}, P5)
    assert chi.coeffs == {canonical: 1}


def test_make_character_refuses_two_spellings_of_one_key():
    # one coefficient must not silently overwrite the other
    canonical, other = W0_SPELLINGS
    # the element is named as the CLI reads it, by the root coordinates of its translation
    with pytest.raises(DomainError, match=r"^two keys spell the element t\[5,5\]\*s1s2s1$"):
        translate.make_character(A2, Weight([0, 0]), {canonical: 1, other: 2}, P5)
    chi = translate.make_character(A2, Weight([0, 0]), {canonical: 0, other: 2}, P5)
    assert chi.coeffs == {canonical: 2}


def test_make_character_orders_and_validates():
    chi = translate.make_character(A1, Weight([0]), {SAFF: 1, E1: 1}, P5)
    assert list(chi.coeffs) == [E1, SAFF]  # identity sorts first
    assert chi.base == Weight([0])
    assert chi.level == P5


def test_make_character_refuses_a_non_mapping():
    with pytest.raises(DomainError, match="got a list"):
        translate.make_character(A1, Weight([0]), [SAFF], P5)
    # a hand-built character's coefficients are read through the same refusal
    with pytest.raises(DomainError,
                       match="^coefficients must map group elements to integers, got a list$"):
        translate.translate_character(A1, LinkageCharacter(P5, [0], [SAFF]), [2])


@pytest.mark.parametrize("bad", ["x", 1.5, Fraction(1, 2), True, 0.0, False],
                         ids=["str", "float", "Fraction", "True", "zero-float", "False"])
def test_make_character_refuses_a_non_int_coefficient(bad):
    # checked before zeros are dropped, so 0.0 and False are refused too
    with pytest.raises(DomainError, match=f"^coefficient {re.escape(repr(bad))} is not an int$"):
        translate.make_character(A1, Weight([0]), {SAFF: bad}, P5)
    with pytest.raises(DomainError, match=f"^coefficient {re.escape(repr(bad))} is not an int$"):
        translate.translate_character(A1, LinkageCharacter(P5, [0], {SAFF: bad}), [2])


def test_make_character_drops_zeros():
    chi = translate.make_character(A1, Weight([0]), {E1: 0, SAFF: 2}, P5)
    assert chi.coeffs == {SAFF: 2}


def test_make_character_rejects_nondominant_image():
    finite_s = affine.finite_element(A1, WeylElement((0,)))
    with pytest.raises(DomainError,
                       match=r"^key s1 sends \[0\] to \[-2\], outside the dominant cone$"):
        translate.make_character(A1, Weight([0]), {finite_s: 1}, P5)


def test_make_character_rejects_noncanonical_key():
    # B2 at p=5: [0,2] sits strictly inside the alcove and is fixed by a
    # non-identity affine reflection whose translation [5,0] is 5 times a short
    # root: in 5Q but not in 5Q^vee, so the group-element check refuses it.
    B2 = root_system("B2")
    base = Weight([0, 2])
    assert affine.in_fundamental_alcove(B2, base, P5, strict=True)
    assert not affine.is_regular(B2, base, P5)
    stab = affine.compose_affine(
        B2, affine.translation_element(B2, Weight([5, 0])),
        affine.finite_element(B2, WeylElement((0, 1, 0))))
    assert _dot_formula(B2, stab, base) == base
    with pytest.raises(DomainError, match=r"^translation \[5,0\] is not in 5Q\^vee "):
        translate.make_character(B2, base, {stab: 1}, P5)


LATTICE_TYPES = ["A2", "B2", "B3", "C3", "G2"]  # A2, where pQ = pQ^vee, is the control


def _lattice_shape(beta, shape):
    return {"weight": Weight(beta), "tuple": tuple(beta),
            "fraction": tuple(Fraction(b, 1) for b in beta)}[shape]


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_make_character_refuses_exactly_the_keys_outside_the_walks_lattice(data):
    name = data.draw(st.sampled_from(LATTICE_TYPES))
    rs, cartan = root_system(name), oracles.cartan_matrix(name[0], int(name[1:]))
    p = data.draw(st.integers(rs.dual_coxeter + 1, rs.dual_coxeter + 4))
    level = Level(p, 1)
    base = data.draw(st.sampled_from(affine.enumerate_dominant(rs, level)))
    ns = data.draw(st.lists(st.integers(-2, 2), min_size=rs.rank, max_size=rs.rank))
    word = WeylElement(tuple(data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=6))))
    beta = [p * sum(n * alpha[j] for n, alpha in zip(ns, rs.simple_roots))
            for j in range(rs.rank)]
    # 2 rho^vee (fundamental coordinates 2 / d_j) is in Q^vee: adding p k 2 rho^vee
    # pushes the image into the dominant cone and keeps beta's class mod pQ^vee
    push = [int(2 / d) * p for d in oracles.symmetrizer(cartan)]
    image = _dot_formula(rs, AffineWeylElement(Weight(beta), word), base)
    k = max(0, *(-(x // step) for x, step in zip(image, push)))
    beta = [b + k * step for b, step in zip(beta, push)]
    g = AffineWeylElement(_lattice_shape(beta, data.draw(st.sampled_from(
        ["weight", "tuple", "fraction"]))), word)
    # make_labels runs the same label check, and refuses the identity besides
    label = not (weyl.canonical_from_word(rs, word.word).is_identity and not any(beta))
    if oracles.in_p_coroot_lattice(cartan, p, beta):
        assert list(translate.make_character(rs, base, {g: 3}, level).coeffs.values()) == [3]
        if label:
            assert len(annihilator.make_labels(rs, base, [g], level).generators) == 1
    else:
        message = f"^translation {re.escape(str(Weight(beta)))} is not in {p}Q\\^vee "
        with pytest.raises(DomainError, match=message):
            translate.make_character(rs, base, {g: 3}, level)
        with pytest.raises(DomainError, match=message):
            annihilator.make_labels(rs, base, [g], level)


@pytest.mark.parametrize("shape", ["tuple", "fraction"])
def test_make_character_lattice_test_reads_tuple_and_fraction_translations(shape):
    # B2 at 5/1: [5,0] is 5 times the short root alpha1 + alpha2, in 5Q but
    # not in 5Q^vee; [10,0] is in 5Q^vee
    B2 = root_system("B2")
    outside = AffineWeylElement(_lattice_shape([5, 0], shape), IDENTITY)
    inside = AffineWeylElement(_lattice_shape([10, 0], shape), IDENTITY)
    chi = translate.make_character(B2, [0, 0], {inside: 1}, P5)
    assert chi.coeffs == {inside: 1}
    # both store the key with its checked Weight translation
    moved = translate.translate_character(B2, LinkageCharacter(P5, [0, 0], {inside: 1}), [0, 1])
    assert [type(g.translation) for g in (*chi.coeffs, *moved.coeffs)] == [Weight, Weight]
    with pytest.raises(DomainError, match=r"^translation \[5,0\] is not in 5Q\^vee "
                                          r"\(root coords \(5, 5\)\)$"):
        translate.make_character(B2, [0, 0], {outside: 1}, P5)


def test_make_character_tests_a_far_key_without_walking():
    # 10**30 (alpha1 + alpha2): an alcove walk from its image crossing one wall per
    # step would take about 10**29 steps; the lattice test reads two rows of the form
    g = AffineWeylElement(Weight([10 ** 30, 10 ** 30]), IDENTITY)
    assert translate.make_character(A2, [0, 0], {g: 1}, P5).coeffs == {g: 1}


def test_translate_verma_answers_a_far_label_at_once():
    # t_{5 * 10**7 theta} sends 0 about 10**7 walls from the alcove; the survivor
    # search's linkage filter reduces each term mod pQ^vee before it walks
    g = AffineWeylElement(Weight([5 * 10 ** 7, 5 * 10 ** 7]), IDENTITY)
    start = time.perf_counter()
    assert translate.translate_verma(A2, g, [0, 0], [1, 0], P5) == Weight([50000001, 50000000])
    assert time.perf_counter() - start < 0.1


# t_beta with beta in pQ but not in pQ^vee: g . lam would not be linked to lam, so
# the group-element check refuses g before any survivor search
@pytest.mark.parametrize("name, beta, p", [("G2", [12, -6], 6), ("B2", [-7, 14], 7)],
                         ids=["G2", "B2"])
def test_verma_translation_outside_the_walks_lattice_is_a_domain_error(name, beta, p):
    g = AffineWeylElement(Weight(beta), IDENTITY)
    with pytest.raises(DomainError):
        translate.translate_verma(root_system(name), g, [0, 0], [0, 0], Level(p, 1))


def test_make_character_rejects_wall_base():
    with pytest.raises(DomainError):
        translate.make_character(A1, Weight([4]), {}, P5)


def test_translate_character_example():
    chi = translate.make_character(A1, Weight([0]), {E1: 1, SAFF: 1}, P5)
    out = translate.translate_character(A1, chi, Weight([2]))
    assert out.base == Weight([2])
    assert out.coeffs == {E1: 1, SAFF: 1}
    # the labels now read 2 and 6
    images = [affine.affine_apply(A1, g, out.base, P5) for g in out.coeffs]
    assert images == [Weight([2]), Weight([6])]


def test_translate_character_keeps_signed_coefficients():
    chi = translate.make_character(A1, Weight([0]), {E1: 2, SAFF: -1}, P5)
    out = translate.translate_character(A1, chi, Weight([1]))
    assert out.coeffs == {E1: 2, SAFF: -1}


def test_translate_character_identity_and_zero():
    chi = translate.make_character(A1, Weight([0]), {SAFF: 3}, P5)
    assert translate.translate_character(A1, chi, Weight([0])) == chi
    empty = translate.make_character(A1, Weight([0]), {}, P5)
    assert translate.translate_character(A1, empty, Weight([2])).coeffs == {}


def test_translate_character_rejects_singular_target():
    chi = translate.make_character(A1, Weight([0]), {E1: 1}, P5)
    with pytest.raises(DomainError):
        translate.translate_character(A1, chi, Weight([4]))


@pytest.mark.parametrize("lam", [[1], [2], [0]])
def test_a_hand_built_key_off_the_dominant_cone_is_refused_not_dropped(lam):
    # make_character refuses s1 over [1] on A1 at 5/1; a hand-built character
    # may hold it, and translating it names the key instead of dropping it
    chi = LinkageCharacter(P5, [1], {affine.finite_element(A1, WeylElement((0,))): 1})
    image = -lam[0] - 2
    message = rf"^key s1 sends \[{lam[0]}\] to \[{image}\], outside the dominant cone$"
    with pytest.raises(DomainError, match=message):
        translate.translate_character(A1, chi, Weight(lam))
    with pytest.raises(DomainError, match=message):
        translate.round_trip_check(A1, chi, lam)


def test_round_trip_examples():
    chi = translate.make_character(A1, Weight([0]), {E1: 2, SAFF: -1}, P5)
    assert translate.round_trip_check(A1, chi, Weight([2]))
    assert translate.round_trip_check(A1, chi, Weight([0]))
    # a hand-built list base comes back as the Weight it spells
    assert translate.round_trip_check(A1, LinkageCharacter(P5, [0], {E1: 2, SAFF: -1}), [2])


def test_round_trip_random_characters():
    rng = random.Random(2024)
    orbit = affine.dominant_orbit(A1, Weight([1]), P5, bound=45)
    for _ in range(25):
        keys = rng.sample([g for g, _ in orbit], rng.randint(0, 5))
        coeffs = {g: rng.choice([-3, -1, 1, 2, 5]) for g in keys}
        chi = translate.make_character(A1, Weight([1]), coeffs, P5)
        assert translate.round_trip_check(A1, chi, Weight([rng.randint(0, 3)]))


# ---------------------------------------------------------------------------
# Verma filtration and translation


def test_verma_filtration_examples():
    assert translate.verma_filtration(A1, Weight([2]), Weight([0])) == {
        Weight([-2]): 1, Weight([0]): 1, Weight([2]): 1}
    parts = translate.verma_filtration(A2, Weight([1, 1]), Weight([0, 0]))
    assert parts[Weight([0, 0])] == 2
    assert sum(parts.values()) == 8
    assert translate.verma_filtration(A1, Weight([0]), Weight([-3])) == {
        Weight([-3]): 1}


def test_verma_filtration_keys_follow_mu():
    # keys are mu + (weights of V_lam); none need be dominant
    parts = translate.verma_filtration(A1, Weight([2]), Weight([-7]))
    assert set(parts) == {Weight([-9]), Weight([-7]), Weight([-5])}


def test_translate_verma_examples():
    finite_s = affine.finite_element(A1, WeylElement((0,)))
    assert translate.translate_verma(A1, finite_s, Weight([0]), Weight([2]), P5) == \
        Weight([-4])
    assert translate.translate_verma(A1, E1, Weight([0]), Weight([2]), P5) == Weight([2])
    assert translate.translate_verma(A1, SAFF, Weight([0]), Weight([2]), P5) == Weight([6])


def test_translate_verma_agrees_with_weyl_translation_when_dominant():
    for g, _ in affine.dominant_orbit(A1, Weight([0]), P5, bound=21):
        assert translate.translate_verma(A1, g, Weight([0]), Weight([2]), P5) == \
            translate.translate_weyl(A1, g, Weight([0]), Weight([2]), P5)


def test_translate_verma_below_the_chamber():
    # elements whose image is far antidominant still translate fine
    finite_s = affine.finite_element(A1, WeylElement((0,)))
    t_down = affine.translation_element(A1, Weight([-10]))
    g = affine.compose_affine(A1, t_down, finite_s)  # 0 -> -12
    assert affine.affine_apply(A1, g, Weight([0]), P5) == Weight([-12])
    assert translate.translate_verma(A1, g, Weight([0]), Weight([1]), P5) == \
        affine.affine_apply(A1, g, Weight([1]), P5)


# ---------------------------------------------------------------------------
# argument checks on the translation path: which of two bad arguments is
# named, and how often each argument is checked

B2 = root_system("B2")
P6 = Level(6, 1)  # on B2: [0,0] and [1,0] are regular, [1,1] is singular
REG, SING = Weight([1, 0]), Weight([1, 1])
OFF_LATTICE = AffineWeylElement(Weight([1, 0]), IDENTITY)  # root coords (1, 1)
BAD_LETTER = AffineWeylElement(Weight([0, 0]), WeylElement((7, 0)))  # s1 . [1,0] = [-3,4]
SHORT_SHIFT = AffineWeylElement(Weight([0]), IDENTITY)
HALF = Weight([Fraction(1, 2), 0])

# (g, the weight that is also bad, where that weight goes)
BAD_PAIRS = {
    "non-element-g-singular-lam": ("x", SING, "lam"),
    "off-lattice-g-wrong-rank-lam": (OFF_LATTICE, Weight([0]), "lam"),
    "bad-letter-non-dominant-image": (BAD_LETTER, REG, "mu"),
    "wrong-rank-translation-non-integral-mu": (SHORT_SHIFT, HALF, "mu"),
}


def _call(fn, g, wt, where):
    lam, mu = (wt, REG) if where == "lam" else (REG, wt)
    if fn == "affine_apply":
        return affine.affine_apply(B2, g, wt, P6)
    if fn == "translate_weyl":
        return translate.translate_weyl(B2, g, mu, lam, P6)
    if fn == "translate_verma":
        return translate.translate_verma(B2, g, mu, lam, P6)
    if fn == "verify_weight_geometry":
        return translate.verify_weight_geometry(B2, lam, mu, g, P6, 60)
    if fn == "translate_character":
        return translate.translate_character(B2, LinkageCharacter(P6, REG, {g: 1}), wt)
    if fn == "make_character":
        return translate.make_character(B2, wt, {g: 1}, P6)
    assert fn == "transport"
    labels = annihilator.SubmoduleLabels(Weight.zero(2), P6, frozenset([g]))
    return annihilator.transport(B2, labels, wt)


PRECEDENCE = [
    ("affine_apply", "non-element-g-singular-lam", "g is a str, not an AffineWeylElement"),
    ("affine_apply", "off-lattice-g-wrong-rank-lam", "translation [1,0] is not in 6Q^vee (root coords (1, 1))"),
    ("affine_apply", "bad-letter-non-dominant-image", "Weyl word (7, 0) has letter 7 outside 0..1 for B2"),
    ("affine_apply", "wrong-rank-translation-non-integral-mu", "translation of g [0] has wrong rank for B2"),
    ("translate_weyl", "non-element-g-singular-lam", "lam [1,1] is singular at level 6/1"),
    ("translate_weyl", "off-lattice-g-wrong-rank-lam", "lam [0] has wrong rank for B2"),
    ("translate_weyl", "bad-letter-non-dominant-image", "Weyl word (7, 0) has letter 7 outside 0..1 for B2"),
    ("translate_weyl", "wrong-rank-translation-non-integral-mu", "mu [1/2,0] is not integral"),
    ("translate_verma", "non-element-g-singular-lam", "lam [1,1] is singular at level 6/1"),
    ("translate_verma", "off-lattice-g-wrong-rank-lam", "lam [0] has wrong rank for B2"),
    ("translate_verma", "bad-letter-non-dominant-image", "Weyl word (7, 0) has letter 7 outside 0..1 for B2"),
    ("translate_verma", "wrong-rank-translation-non-integral-mu", "mu [1/2,0] is not integral"),
    ("verify_weight_geometry", "non-element-g-singular-lam", "lam [1,1] is singular at level 6/1"),
    ("verify_weight_geometry", "off-lattice-g-wrong-rank-lam", "lam [0] has wrong rank for B2"),
    ("verify_weight_geometry", "bad-letter-non-dominant-image", "Weyl word (7, 0) has letter 7 outside 0..1 for B2"),
    ("verify_weight_geometry", "wrong-rank-translation-non-integral-mu", "mu [1/2,0] is not integral"),
    ("translate_character", "non-element-g-singular-lam", "lam [1,1] is singular at level 6/1"),
    ("translate_character", "off-lattice-g-wrong-rank-lam", "lam [0] has wrong rank for B2"),
    ("translate_character", "bad-letter-non-dominant-image", "Weyl word (7, 0) has letter 7 outside 0..1 for B2"),
    ("translate_character", "wrong-rank-translation-non-integral-mu", "lam [1/2,0] is not integral"),
    ("make_character", "non-element-g-singular-lam", "key is a str, not an AffineWeylElement"),
    ("make_character", "off-lattice-g-wrong-rank-lam", "base [0] has wrong rank for B2"),
    ("make_character", "bad-letter-non-dominant-image", "Weyl word (7, 0) has letter 7 outside 0..1 for B2"),
    ("make_character", "wrong-rank-translation-non-integral-mu", "base [1/2,0] is not integral"),
    ("transport", "non-element-g-singular-lam", "lam [1,1] is singular at level 6/1"),
    ("transport", "off-lattice-g-wrong-rank-lam", "lam [0] has wrong rank for B2"),
    ("transport", "bad-letter-non-dominant-image", "Weyl word (7, 0) has letter 7 outside 0..1 for B2"),
    ("transport", "wrong-rank-translation-non-integral-mu", "lam [1/2,0] is not integral"),
]


@pytest.mark.parametrize("fn,case,message", [
    pytest.param(fn, case, message, id=f"{fn}-{case}") for fn, case, message in PRECEDENCE])
def test_two_bad_arguments_name_the_first_checked(fn, case, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        _call(fn, *BAD_PAIRS[case])


# Off the translation path: a wrong-rank translation is named before the
# element is used (the identity check of make_labels would read it first).
WRONG_RANK_ELEMENT = [
    ("compose_affine", lambda: affine.compose_affine(B2, affine.identity_element(2), SHORT_SHIFT),
     "translation of h [0] has wrong rank for B2"),
    ("inverse_affine", lambda: affine.inverse_affine(B2, SHORT_SHIFT),
     "translation of g [0] has wrong rank for B2"),
    ("make_labels", lambda: annihilator.make_labels(B2, [0, 0], [SHORT_SHIFT], P6),
     "translation of generator [0] has wrong rank for B2"),
]


@pytest.mark.parametrize("call,message", [
    pytest.param(call, message, id=fn) for fn, call, message in WRONG_RANK_ELEMENT])
def test_wrong_rank_translation_is_named(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


# Off the lattice and with a bad letter: every function that takes a group
# element and a level checks the lattice before it applies or respells the word.
OFF_LATTICE_BAD_LETTER = AffineWeylElement(Weight([1, 0]), WeylElement((7,)))
LATTICE_FIRST = {
    "translation_lattice_coords": lambda g: affine.translation_lattice_coords(B2, g, P6),
    "make_labels": lambda g: annihilator.make_labels(B2, REG, [g], P6),
    **{fn: lambda g, fn=fn: _call(fn, g, REG, "lam") for fn in (
        "affine_apply", "translate_weyl", "translate_verma", "verify_weight_geometry",
        "translate_character", "make_character", "transport")},
}


@pytest.mark.parametrize("call", [
    pytest.param(call, id=fn) for fn, call in LATTICE_FIRST.items()])
def test_off_lattice_element_is_named_before_its_letters(call):
    message = "translation [1,0] is not in 6Q^vee (root coords (1, 1))"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(OFF_LATTICE_BAD_LETTER)


def test_precedence_table_covers_every_case_of_every_function():
    fns = {fn for fn, _, _ in PRECEDENCE}
    assert {(fn, case) for fn, case, _ in PRECEDENCE} == {
        (fn, case) for fn in fns for case in BAD_PAIRS}
    assert len(fns) == 7


def _record_calls(monkeypatch, name, calls):
    """Append ``(name, args)`` to ``calls`` on every call of the function ``name``,
    public or (when it starts with ``_``) private to ``rootsys`` or ``affine``, whichever
    afftrans module makes it."""
    home = afftrans if not name.startswith("_") else rootsys if hasattr(rootsys, name) else affine
    original = getattr(home, name)

    def recorded(*args, **kwargs):
        calls.append((name, args))
        return original(*args, **kwargs)

    for module in (rootsys, weyl, affine, finchar, translate, annihilator):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, recorded)


def test_translate_weyl_checks_each_argument_once(monkeypatch):
    g = affine.theta_wall_reflection(A2, P5)  # translation [5,5]; sends 0 to [3,3]
    calls = []
    for name in ("_as_group_element", "in_fundamental_alcove", "is_regular", "affine_apply"):
        _record_calls(monkeypatch, name, calls)
    assert translate.translate_weyl(A2, g, Weight([0, 0]), Weight([1, 0]), P5) == Weight([3, 2])
    assert [args for name, args in calls if name != "_as_group_element"] == []
    # the lattice test runs where the group-element check is given a level
    assert [args for _, args in calls if len(args) > 2 and args[2] is not None] == [(A2, g, P5)]


# ---------------------------------------------------------------------------
# the dot action against its formula, on every translation path

DOT_TYPES = ["A1", "A2", "A3", "B2", "C3", "G2"]


@st.composite
def _affine_elements(draw, rs, level, vectors):
    """An element with translation p * (a sum of ``vectors``, roots or coroots), canonical or
    with a non-canonical word (a random word, or ``s_i s_i`` spliced into one)."""
    coeffs = draw(st.lists(st.integers(-1, 1), min_size=len(vectors), max_size=len(vectors)))
    beta = sum((level.p * c * v for c, v in zip(coeffs, vectors)), Weight.zero(rs.rank))
    word = tuple(draw(st.lists(st.integers(0, rs.rank - 1), max_size=6)))
    if draw(st.booleans()):
        word = weyl.canonical_from_word(rs, word).word
    return AffineWeylElement(beta, WeylElement(word))


def _simple_coroots(rs):
    """The simple coroots, which span the translations ``pQ^vee`` of the walk's group."""
    return [Weight(c) for c in oracles.simple_coroots(rs.cartan)]


def _respell(draw, rs, g):
    """``g`` with ``s_i s_i`` spliced into its word at a drawn place."""
    word, i = g.finite.word, draw(st.integers(0, rs.rank - 1))
    at = draw(st.integers(0, len(word)))
    return AffineWeylElement(g.translation, WeylElement(word[:at] + (i, i) + word[at:]))


def _dot_formula(rs, g, lam):
    return weyl.apply(rs, g.finite, lam, shifted=True) + g.translation


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_affine_apply_is_the_dot_formula(data):
    rs = root_system(data.draw(st.sampled_from(DOT_TYPES)))
    level = Level(data.draw(st.integers(rs.dual_coxeter + 1, rs.dual_coxeter + 6)), 1)
    g = data.draw(_affine_elements(rs, level, _simple_coroots(rs)))
    lam = Weight(data.draw(st.lists(st.integers(-4, 6), min_size=rs.rank, max_size=rs.rank)))
    assert affine.affine_apply(rs, g, lam, level) == _dot_formula(rs, g, lam)
    assert affine.affine_apply(rs, _respell(data.draw, rs, g), lam, level) == \
        _dot_formula(rs, g, lam)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_translate_weyl_lands_on_the_dot_image(data):
    rs = root_system(data.draw(st.sampled_from(DOT_TYPES)))
    level = Level(data.draw(st.integers(rs.dual_coxeter + 2, rs.dual_coxeter + 5)), 1)
    regular = annihilator.admissible_list(rs, level)
    mu, lam = data.draw(st.sampled_from(regular)), data.draw(st.sampled_from(regular))
    # translations by p times the long roots: the group the alcove walk generates
    long_roots = [a for a in rs.positive_roots if rootsys.bilinear(rs, a, a) == 2]
    g = data.draw(_affine_elements(rs, level, long_roots))
    # move g . mu into the dominant chamber with a finite w, so that w g . mu
    # is dominant (mu is regular, so g . mu + rho is off every wall)
    _, w, _ = weyl.dominant_rep(rs, _dot_formula(rs, g, mu), shifted=True)
    g = affine.compose_affine(rs, affine.finite_element(rs, w), g)
    if data.draw(st.booleans()):
        g = _respell(data.draw, rs, g)
    try:
        got = translate.translate_weyl(rs, g, mu, lam, level)
    except DimensionCapError:
        return
    assert got == affine.affine_apply(rs, g, lam, level) == _dot_formula(rs, g, lam)


# ---------------------------------------------------------------------------
# the survivor search pr_target(V_tau x -) against the filtration it replaced,
# projected onto the target's class

SURVIVOR_CAP = 3000


@functools.cache
def _closed_alcove(rs, level):
    """Every integral weight of the closed fundamental alcove, walls included."""
    return [Weight(c) for c in itertools.product(range(-1, level.p), repeat=rs.rank)
            if affine.in_fundamental_alcove(rs, c, level, strict=False)]


def _projected_filtration(rs, tau, start, target, level, verma):
    parts = (translate.verma_filtration if verma else translate.kl_weyl_filtration)(
        rs, tau, start, cap=SURVIVOR_CAP)
    if affine.in_fundamental_alcove(rs, target, level):
        return translate.project_linkage(rs, parts, target, level)
    # a target on a wall, which project_linkage refuses
    return {nu: m for nu, m in parts.items() if affine.linked(rs, nu, target, level)}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_survivor_search_is_the_projected_filtration(data):
    rs = root_system(data.draw(st.sampled_from(DOT_TYPES)))
    level = Level(data.draw(st.integers(rs.dual_coxeter + 1, rs.dual_coxeter + 5)), 1)
    verma = data.draw(st.booleans())
    coords = st.lists(st.integers(-4 if verma else 0, 4), min_size=rs.rank, max_size=rs.rank)
    tau = Weight(data.draw(st.lists(st.integers(0, 2), min_size=rs.rank, max_size=rs.rank)))
    start = Weight(data.draw(coords))
    # half inside the alcove, half from the closed alcove, where most points lie on a wall
    target = data.draw(st.sampled_from(affine.enumerate_dominant(rs, level))
                       | st.sampled_from(_closed_alcove(rs, level)))
    try:
        expected = _projected_filtration(rs, tau, start, target, level, verma)
    except DimensionCapError as refusal:
        with pytest.raises(DimensionCapError, match=f"^{re.escape(str(refusal))}$"):
            translate._survivors(rs, tau, start, target, level.p, SURVIVOR_CAP, verma)
        return
    got = translate._survivors(rs, tau, start, tuple(target), level.p, SURVIVOR_CAP, verma)
    assert list(got.items()) == list(expected.items())


@pytest.mark.parametrize("verma,target,kept", [
    # V_[2] x V_[4] = V_[2] + V_[4] + V_[6] on A1 at 5/1
    (False, [2], {Weight([2]): 1, Weight([6]): 1}),
    (False, [4], {Weight([4]): 1}),  # on the wall (x + rho, theta) = p
    (False, [0], {}),
    # V_[2] x M_[0]: Verma factors at [-2], [0] and [2]
    (True, [0], {Weight([-2]): 1, Weight([0]): 1}),
    (True, [-1], {}),  # on the wall x + rho = 0
    (True, [2], {Weight([2]): 1})])
def test_survivor_search_keeps_several_one_or_no_terms(verma, target, kept):
    start = Weight([0]) if verma else Weight([4])
    got = translate._survivors(A1, Weight([2]), start, tuple(target), 5, SURVIVOR_CAP, verma)
    assert got == kept == _projected_filtration(A1, Weight([2]), start, Weight(target), P5, verma)


@pytest.mark.parametrize("translation", [translate.translate_weyl, translate.translate_verma])
def test_translations_check_the_mass_of_every_term(monkeypatch, translation):
    # V_[1,0] x V_[3,3] (or M_[3,3]) on A2 at 5/1 keeps only [3,2] in the class of
    # [1,0]; the term [4,3], from the weight [1,0] of V_tau, is not linked, so
    # doubling that multiplicity leaves the survivors alone and only the mass
    # check sees it
    real = finchar._character

    def one_multiplicity_off(rs_, wt):
        pairs, cells, lows = real(rs_, wt)
        if wt == Weight([1, 0]):
            pairs = tuple((x, m + (x == wt)) for x, m in pairs)
        return pairs, cells, lows

    g = affine.theta_wall_reflection(A2, P5)
    assert translation(A2, g, Weight([0, 0]), Weight([1, 0]), P5) == Weight([3, 2])
    monkeypatch.setattr(finchar, "_character", one_multiplicity_off)
    with pytest.raises(InternalInconsistencyError,
                       match=r"^tensor mass mismatch for \[1,0\] x \[3,3\]$"):
        translation(A2, g, Weight([0, 0]), Weight([1, 0]), P5)


def test_translation_refusals_keep_their_texts():
    g2, p8 = root_system("G2"), Level(8, 1)
    g = AffineWeylElement(Weight([0, 8]), IDENTITY)  # 0 -> [0,8], of dimension 11,571
    # dim V_[2,1] = 189: the refusal is on the product of the two dimensions
    message = "^dimension product 2186919 exceeds cap 1000000$"
    with pytest.raises(DimensionCapError, match=message):
        translate.translate_weyl(g2, g, Weight([0, 0]), Weight([2, 1]), p8)
    labels = annihilator.make_labels(g2, Weight([0, 0]), [g], p8)
    with pytest.raises(DimensionCapError, match=message):
        annihilator.transport(g2, labels, Weight([2, 1]))
    # the Verma translation is refused on dim V_tau alone
    with pytest.raises(DimensionCapError, match="^dimension 3 exceeds cap 2$"):
        translate.translate_verma(A2, affine.identity_element(2), Weight([0, 0]),
                                  Weight([1, 0]), P5, cap=2)


def test_translations_build_no_filtration(monkeypatch):
    calls = []
    for name in ("tensor_decompose", "kl_weyl_filtration", "verma_filtration",
                 "project_linkage"):
        _record_calls(monkeypatch, name, calls)
    g, zero, lam = affine.theta_wall_reflection(A2, P5), Weight([0, 0]), Weight([1, 0])
    assert translate.translate_weyl(A2, g, zero, lam, P5) == Weight([3, 2])
    assert translate.translate_verma(A2, g, zero, lam, P5) == Weight([3, 2])
    labels = annihilator.make_labels(A2, zero, [g], P5)
    assert annihilator.transport(A2, labels, lam).base == lam
    assert calls == []
    translate.project_linkage(A2, translate.kl_weyl_filtration(A2, lam, zero), lam, P5)
    assert [name for name, _ in calls] == [
        "kl_weyl_filtration", "tensor_decompose", "project_linkage"]


# ---------------------------------------------------------------------------
# the translation core builds its weights unchecked (rootsys._trusted)


def _int_weights(weights):
    return all(type(w) is Weight and all(type(c) is int for c in w) and w == Weight(tuple(w))
               for w in weights)


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_every_weight_the_translation_core_returns_has_int_coordinates(data):
    rs = root_system(data.draw(st.sampled_from(DOT_TYPES)))
    level = Level(data.draw(st.integers(rs.dual_coxeter + 2, rs.dual_coxeter + 5)), 1)
    g = data.draw(_affine_elements(rs, level, _simple_coroots(rs)))
    lam = Weight(data.draw(st.lists(st.integers(-4, 6), min_size=rs.rank, max_size=rs.rank)))
    rep, h, _ = affine.alcove_rep(rs, lam, level)
    returned = [affine.affine_apply(rs, g, lam, level), rep, h.translation,
                *affine.enumerate_dominant(rs, level)]
    regular = annihilator.admissible_list(rs, level)
    mu, nu = data.draw(st.sampled_from(regular)), data.draw(st.sampled_from(regular))
    orbit = affine.dominant_orbit(rs, mu, level, bound=3 * level.p)
    returned += [w for _, w in orbit] + [k.translation for k, _ in orbit]
    k, _ = data.draw(st.sampled_from(orbit))  # k . mu is dominant
    # p times the long roots, as the alcove walk makes them: on B2 and G2, pQ
    # is larger than the group the linkage classes see
    long_roots = [a for a in rs.positive_roots if rootsys.bilinear(rs, a, a) == 2]
    v = data.draw(_affine_elements(rs, level, long_roots))  # v . mu need not be dominant
    for translation, element in ((translate.translate_weyl, k), (translate.translate_verma, v)):
        try:
            returned.append(translation(rs, element, mu, nu, level))
        except DimensionCapError:
            pass
    assert _int_weights(returned)


@pytest.mark.parametrize("beta", [(10,), [10], (Fraction(10, 1),)],
                         ids=["tuple", "list", "fraction"])
def test_a_translation_that_is_no_weight_still_gives_int_weights(beta):
    g = AffineWeylElement(beta, IDENTITY)
    images = [affine.affine_apply(A1, g, [0], P5),
              translate.translate_weyl(A1, g, [0], [1], P5),
              translate.translate_verma(A1, g, [0], [1], P5)]
    assert images == [Weight([10]), Weight([11]), Weight([11])] and _int_weights(images)
    assert repr(affine.affine_apply(A1, g, [Fraction(1, 2)], P5)) == "Weight('[21/2]')"


def test_a_rational_weight_keeps_the_checked_dot_action():
    image = affine.affine_apply(A1, SAFF, [Fraction(1, 2)], P5)
    assert repr(image) == "Weight('[15/2]')"
    # s1 . [1/2,1/2] = [-5/2, 2]: the Fraction(2, 1) the walk computes is stored as 2
    s1 = AffineWeylElement(Weight([0, 0]), WeylElement((0,)))
    image = affine.affine_apply(A2, s1, [Fraction(1, 2), Fraction(1, 2)], P5)
    assert repr(image) == "Weight('[-5/2,2]')" and type(image[1]) is int


def test_a_warm_translation_checks_no_weight(monkeypatch):
    a3, p6 = root_system("A3"), Level(6, 1)
    g, zero, lam = affine.theta_wall_reflection(a3, p6), Weight([0, 0, 0]), Weight([1, 0, 0])
    calls = [lambda: translate.translate_weyl(a3, g, zero, lam, p6),
             lambda: translate.translate_verma(a3, g, zero, lam, p6),
             lambda: affine.affine_apply(a3, g, lam, p6)]
    images = [call() for call in calls]
    assert images == [Weight([3, 0, 2])] * 3
    real, built = Weight.__new__, []

    def counted(cls, coords):
        built.append(coords)
        return real(cls, coords)

    monkeypatch.setattr(Weight, "__new__", counted)
    assert [call() for call in calls] == images
    assert built == []

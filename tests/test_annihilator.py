"""Admissible levels, singular generator labels, and label transport."""

from __future__ import annotations

import inspect

import pytest

from afftrans import affine, annihilator, finchar, translate
from afftrans.affine import AffineWeylElement, Level
from afftrans.errors import DimensionCapError, DomainError
from afftrans.rootsys import Weight, pairing, root_system
from afftrans.weyl import IDENTITY, WeylElement

A1 = root_system("A1")
A2 = root_system("A2")


def lvl(p, q=1):
    return Level(p, q)


# ---------------------------------------------------------------------------
# admissible weights


def test_admissible_list_a1():
    assert annihilator.admissible_list(A1, lvl(5)) == [
        Weight([0]), Weight([1]), Weight([2]), Weight([3])]
    assert annihilator.admissible_list(A1, lvl(4)) == [
        Weight([0]), Weight([1]), Weight([2])]


def test_admissible_list_a2():
    assert annihilator.admissible_list(A2, lvl(3)) == [Weight([0, 0])]
    assert annihilator.admissible_list(A2, lvl(4)) == [
        Weight([0, 0]), Weight([0, 1]), Weight([1, 0])]


def test_admissible_list_matches_alcove_enumeration():
    for p in (3, 5, 8):
        assert annihilator.admissible_list(A1, lvl(p)) == \
            list(affine.enumerate_dominant(A1, lvl(p)))


def test_admissible_list_fractional_unsupported():
    with pytest.raises(DomainError, match="not modelled"):
        annihilator.admissible_list(A1, lvl(5, 2), integral_only=False)


# ---------------------------------------------------------------------------
# the singular generator


def test_singular_generator_a1():
    g = annihilator.singular_generator_label(A1, lvl(5))
    assert g == affine.theta_wall_reflection(A1, lvl(5))
    assert affine.affine_apply(A1, g, Weight([0]), lvl(5)) == Weight([8])
    g3 = annihilator.singular_generator_label(A1, lvl(3))
    assert affine.affine_apply(A1, g3, Weight([0]), lvl(3)) == Weight([4])


def test_singular_generator_a2():
    g = annihilator.singular_generator_label(A2, lvl(4))
    assert affine.affine_apply(A2, g, Weight([0, 0]), lvl(4)) == Weight([2, 2])


def test_singular_generator_height_invariant():
    # pairing of (g.0 + rho) with the highest coroot is 2p - (rho, theta-vee)
    for name, p in (("A1", 7), ("A2", 5), ("B2", 7), ("G2", 11), ("A3", 6)):
        rs = root_system(name)
        level = lvl(p)
        g = annihilator.singular_generator_label(rs, level)
        image = affine.affine_apply(rs, g, Weight([0] * rs.rank), level)
        height = pairing(rs, image + rs.rho, rs.theta)
        assert height == 2 * p - pairing(rs, rs.rho, rs.theta)


def test_singular_generator_rejects_singular_zero():
    with pytest.raises(DomainError, match="singular at level"):
        annihilator.singular_generator_label(A1, lvl(1))
    with pytest.raises(DomainError, match="singular at level"):
        annihilator.singular_generator_label(A2, lvl(2))


def test_singular_generator_is_minimal_nontrivial_orbit_label():
    # at every level the image of 0 is the smallest non-zero dominant orbit
    # element, [2p - 2]
    for p in range(2, 21):
        level = lvl(p)
        g = annihilator.singular_generator_label(A1, level)
        image = affine.affine_apply(A1, g, Weight([0]), level)
        assert image == Weight([2 * p - 2])
        others = [w for _, w in affine.dominant_orbit(A1, Weight([0]), level)
                  if w != Weight([0])]
        assert image == min(others)


# ---------------------------------------------------------------------------
# label sets


def test_make_labels_basic():
    level = lvl(5)
    g = annihilator.singular_generator_label(A1, level)
    labels = annihilator.make_labels(A1, Weight([0]), {g}, level)
    assert labels.base == Weight([0])
    assert labels.level == level
    assert labels.generators == frozenset({g})


def test_make_labels_rejects_identity_generator():
    with pytest.raises(DomainError, match="whole module"):
        annihilator.make_labels(A1, Weight([0]),
                                {affine.identity_element(1)}, lvl(5))


def test_make_labels_rejects_nondominant_image():
    s = affine.finite_element(A1, WeylElement((0,)))
    with pytest.raises(DomainError):
        annihilator.make_labels(A1, Weight([0]), {s}, lvl(5))


def test_make_labels_keeps_one_generator_per_element():
    # s1s2s1 and s2s1s2 spell the same finite part
    g1, g2 = (affine.AffineWeylElement(Weight([5, 5]), WeylElement(word))
              for word in ((0, 1, 0), (1, 0, 1)))
    labels = annihilator.make_labels(A2, Weight([0, 0]), [g1, g2], lvl(5))
    assert labels.generators == frozenset({g1})


# ---------------------------------------------------------------------------
# transport


def test_transport_example():
    level = lvl(5)
    g = annihilator.singular_generator_label(A1, level)  # 0 -> 8
    labels = annihilator.make_labels(A1, Weight([0]), {g}, level)
    moved = annihilator.transport(A1, labels, Weight([2]))
    assert moved.base == Weight([2])
    assert moved.generators == labels.generators
    (h,) = moved.generators
    assert affine.affine_apply(A1, h, Weight([2]), level) == Weight([6])


def test_transport_requires_zero_base():
    level = lvl(5)
    g = annihilator.singular_generator_label(A1, level)
    labels = annihilator.make_labels(A1, Weight([0]), {g}, level)
    moved = annihilator.transport(A1, labels, Weight([2]))
    with pytest.raises(DomainError, match="starts from base 0"):
        annihilator.transport(A1, moved, Weight([1]))
    # a hand-built list base is read as the weight it spells
    hand_built = annihilator.SubmoduleLabels([0], level, frozenset({g}))
    assert annihilator.transport(A1, hand_built, Weight([2])) == moved


def test_transport_empty_set():
    labels = annihilator.make_labels(A1, Weight([0]), set(), lvl(5))
    moved = annihilator.transport(A1, labels, Weight([3]))
    assert moved.generators == frozenset()
    assert moved.base == Weight([3])


def test_transport_empty_set_checks_base_then_target():
    # no generator reaches translate_weyl, yet its checks still run, in its order
    labels = annihilator.make_labels(A2, Weight([0, 0]), set(), lvl(5))
    with pytest.raises(DomainError, match=r"lam \[4,4\] is not strictly inside"):
        annihilator.transport(A2, labels, [4, 4])
    B2 = root_system("B2")
    labels = annihilator.make_labels(B2, Weight([0, 0]), set(), lvl(3))
    with pytest.raises(DomainError, match=r"mu \[0,0\] is singular at level 3/1"):
        annihilator.transport(B2, labels, [9, 9])


def test_transport_takes_the_cap_of_translate_weyl():
    # G2 at 8/1: t[24,16] sends 0 to [0,8], of dimension 11,571; dim V_[2,1] = 189
    g2, level, zero, lam = root_system("G2"), lvl(8), Weight([0, 0]), Weight([2, 1])
    g = AffineWeylElement(Weight([0, 8]), IDENTITY)
    labels = annihilator.make_labels(g2, zero, {g}, level)
    with pytest.raises(DimensionCapError,
                       match="^dimension product 2186919 exceeds cap 1000000$"):
        annihilator.transport(g2, labels, lam)
    with pytest.raises(DimensionCapError,
                       match="^dimension product 2186919 exceeds cap 2186918$"):
        annihilator.transport(g2, labels, lam, cap=2186918)
    moved = annihilator.transport(g2, labels, lam, cap=2186919)
    assert (moved.base, moved.generators) == (lam, labels.generators)
    assert translate.translate_weyl(g2, g, zero, lam, level, cap=10 ** 9) == Weight([2, 9])


def test_transport_default_cap_is_the_library_default():
    default = inspect.signature(annihilator.transport).parameters["cap"].default
    assert default == finchar.DEFAULT_CAP and type(default) is int


def test_transport_agrees_with_translate_weyl():
    level = lvl(5)
    gens = {g for g, w in affine.dominant_orbit(A1, Weight([0]), level, bound=25)
            if w != Weight([0])}
    labels = annihilator.make_labels(A1, Weight([0]), gens, level)
    for lam in (Weight([0]), Weight([1]), Weight([2]), Weight([3])):
        moved = annihilator.transport(A1, labels, lam)
        for g in moved.generators:
            assert translate.translate_weyl(A1, g, Weight([0]), lam, level) == \
                affine.affine_apply(A1, g, lam, level)


def test_transport_preserves_orbit_order():
    # images stay in the same relative (dot-order) position after transport:
    # g.0 < h.0 implies g.2 < h.2 on this one-dimensional orbit
    level = lvl(5)
    pairs = [(g, w) for g, w in
             affine.dominant_orbit(A1, Weight([0]), level, bound=25)
             if w != Weight([0])]
    labels = annihilator.make_labels(A1, Weight([0]), {g for g, _ in pairs},
                                     level)
    moved = annihilator.transport(A1, labels, Weight([2]))
    assert moved.generators == frozenset(g for g, _ in pairs)
    order_at_0 = sorted(pairs, key=lambda item: item[1])
    images_at_2 = [affine.affine_apply(A1, g, Weight([2]), level)
                   for g, _ in order_at_0]
    assert images_at_2 == sorted(images_at_2)

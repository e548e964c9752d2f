"""Admissible weights and transport of submodule labels between classes.

Submodules of a Weyl module are tracked only through the labels of their
singular generators: affine Weyl group elements whose dot image of the base
weight is dominant.  Transport re-bases a label set along the translation
functor, generator by generator, re-deriving each image through the
survivor search of :mod:`translate`.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import affine
from .affine import AffineWeylElement, Level, _as_alcove_weight
from .errors import DomainError
from .rootsys import RootSystem, Weight, _a_or_an, _as_instance, _as_weight, _Frozen


class SubmoduleLabels(_Frozen):
    """Generators of a submodule of the Weyl module over ``base``."""

    __slots__ = ("base", "level", "generators")

    def __init__(self, base: Weight, level: Level, generators: frozenset):
        self._store(base, level, generators)


def make_labels(rs: RootSystem, base, generators, level: Level) -> SubmoduleLabels:
    """Validated label set: non-identity generators that pass :func:`affine._as_label`."""
    base = _as_alcove_weight(rs, base, level, "base")
    gens = _as_frozenset(generators)
    respelled = frozenset(affine._as_label(rs, g, base, level, "generator") for g in gens)
    if any(g.is_identity for g in respelled):
        raise DomainError("the identity labels the whole module, not a proper submodule")
    if respelled != gens:  # else keep the caller's set: transport follows its order
        gens = respelled
    return SubmoduleLabels(base=base, level=level, generators=gens)


def _as_frozenset(generators) -> frozenset:
    """``generators`` as a frozenset (itself if one): the one check of the collection, which
    names a member that cannot be hashed."""
    try:
        return frozenset(generators)
    except TypeError:
        if isinstance(generators, Iterable):
            for g in generators:
                try:
                    hash(g)
                except TypeError:
                    raise DomainError(f"generator {g!r} is unhashable") from None
        raise DomainError(f"generators must be a collection of group elements, "
                          f"got {_a_or_an(type(generators).__name__)}") from None


def admissible_list(rs: RootSystem, level: Level,
                    integral_only: bool = True) -> list:
    """Integral weights in the dominant alcove that are regular at ``level``.

    These label the admissible simple quotients.  Only the integral family
    is enumerated here; the non-integral admissibles form a larger set that
    this library does not model.
    """
    if not integral_only:
        raise DomainError("non-integral admissible weights are not modelled")
    return [w for w in affine.enumerate_dominant(rs, level)
            if affine.is_regular(rs, w, level)]


def singular_generator_label(rs: RootSystem, level: Level) -> AffineWeylElement:
    """Label of the singular vector generating the maximal submodule at 0.

    This is the affine reflection through the wall ``(x, theta) = p`` of the
    shifted chamber; its dot action sends 0 to ``(p - (rho, theta)) theta``.
    Requires the zero weight to be regular at ``level``.
    """
    zero = Weight.zero(rs.rank)
    if not affine.is_regular(rs, zero, level):
        raise DomainError(f"weight 0 is singular at level {level}")
    return affine.theta_wall_reflection(rs, level)


def transport(rs: RootSystem, labels: SubmoduleLabels, lam, *,
              cap: int = 10 ** 6) -> SubmoduleLabels:
    """Re-base a label set from 0 to ``lam`` along the translation functor.

    Every generator is pushed through :func:`translate.translate_weyl` under ``cap``
    (``finchar.DEFAULT_CAP``, which this layer loads only to transport), so each image
    is certified by its single-survivor check; a failure there propagates as an
    internal-inconsistency error.  The generator set itself is carried over
    unchanged, so inclusions of label sets are preserved verbatim.
    """
    return _transport(rs, labels, lam, cap)[0]


def _transport(rs: RootSystem, labels: SubmoduleLabels, lam,
               cap: int) -> tuple[SubmoduleLabels, dict]:
    """:func:`transport` under ``cap``, and the image ``g . lam`` of every generator ``g``."""
    from . import translate  # with finchar: loaded for transport alone
    zero = Weight.zero(rs.rank)
    level = _as_instance(labels, SubmoduleLabels, "labels").level
    base = _as_weight(rs, labels.base, "base")
    if base != zero:
        raise DomainError(f"transport starts from base 0, not {base}")
    lam = _as_weight(rs, lam, "lam")
    # translate_weyl's order: the base 0 as a regular ``mu``, then ``lam``.
    _as_alcove_weight(rs, zero, level, "mu", regular=True)
    lam = _as_alcove_weight(rs, lam, level, "lam", regular=True)
    _as_instance(cap, int, "cap")  # also when there is no generator to translate
    gens = _as_frozenset(labels.generators)
    images = {g: translate._translate(rs, g, zero, lam, level, cap) for g in gens}
    return SubmoduleLabels(base=lam, level=level, generators=gens), images

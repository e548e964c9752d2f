"""Affine Weyl group at rational shifted level, alcoves and linkage.

The group is the one the alcove walk generates, ``W x pQ^vee`` (``Q^vee`` is
spanned by the long roots).  It acts through the dot action
``(t_beta, w) . lam = w . lam + beta``.  The shifted level t = p/q represents
k + (dual Coxeter number); the fundamental alcove is cut out by ``lam + rho``
dominant and ``0 < (lam + rho, theta) < p``.

Every walk into the closed fundamental alcove is :func:`_alcove_walk`: a
reduction modulo ``pQ^vee``, then the finite dominant walk of :mod:`weyl`,
alternated with the reflection through the wall ``(lam + rho, theta) = p``.

The finite part ``w . lam`` of the dot action is memoized per (root system, word, integral
``lam``); a word that is not a tuple of ``int`` letters bypasses the cache (see :mod:`weyl`).
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from math import gcd
from operator import add, mul, sub

from . import weyl
from .errors import DomainError, InexactCoordinateError
from .rootsys import (RootSystem, Weight, _as_instance, _as_weight, _Frozen, _root_numerator,
                      _trusted, root_coords)
from .weyl import IDENTITY, WeylElement

_DOMINANT_BOX_CAP = 10 ** 7


class Level(_Frozen):
    """Shifted level t = p/q > 0 in lowest terms (t = k + dual Coxeter)."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if type(p) is not int or type(q) is not int:  # bool is no level
            raise DomainError(f"level must have integer p, q, got {p}/{q}")
        if p <= 0 or q <= 0:
            raise DomainError(f"shifted level must be positive, got {p}/{q}")
        if gcd(p, q) != 1:
            raise DomainError(f"level {p}/{q} is not in lowest terms")
        self._store(p, q)

    @property
    def t(self) -> Fraction:
        return Fraction(self.p, self.q)

    @classmethod
    def from_shifted(cls, t) -> "Level":
        if isinstance(t, float):
            raise InexactCoordinateError(f"floating point level {t!r} is not allowed")
        try:
            if type(t) is bool:  # bool is no level
                raise TypeError
            t = Fraction(t)
        except (TypeError, ValueError, ZeroDivisionError):
            raise DomainError(f"malformed level {t!r}") from None
        return cls(t.numerator, t.denominator)

    def k(self, rs: RootSystem) -> Fraction:
        """The unshifted level k = t - (dual Coxeter number)."""
        return self.t - rs.dual_coxeter

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def _as_level(level) -> Level:
    """``level`` once it is a ``Level``: the one level check of the public API."""
    return _as_instance(level, Level, "level")


class AffineWeylElement(_Frozen):
    """(t_beta, w): translation part beta and finite part w, the canonical form; at a level
    beta lies in ``pQ^vee``."""

    __slots__ = ("translation", "finite")

    def __init__(self, translation: Weight, finite: WeylElement):
        _set_translation(self, translation)
        _set_finite(self, finite)

    @property
    def is_identity(self) -> bool:
        return self.finite.is_identity and not any(self.translation)


_set_translation = AffineWeylElement.translation.__set__  # past __setattr__
_set_finite = AffineWeylElement.finite.__set__


def _as_group_element(rs: RootSystem, g, level: Level | None = None,
                      what: str = "g") -> AffineWeylElement:
    """``g`` with its checked ``Weight`` translation (``g`` itself if it has one) of the right rank,
    in ``pQ^vee`` at ``level`` if given (memoized), once its finite part is a ``WeylElement``: the
    one public group-element check.  Letters are checked where used."""
    g = _as_instance(g, AffineWeylElement, what)
    _as_instance(g.finite, WeylElement, f"finite part of {what}")
    beta = _as_weight(rs, g.translation, f"translation of {what}")
    if level is not None and not _in_coroot_lattice(rs, beta, _as_level(level).p):
        raise DomainError(f"translation {beta} is not in {level.p}Q^vee "
                          f"(root coords {root_coords(rs, beta)})")
    return g if beta is g.translation else AffineWeylElement(beta, g.finite)


@functools.lru_cache(maxsize=4096)
def _in_coroot_lattice(rs: RootSystem, beta: Weight, p: int) -> bool:
    """``beta`` in ``pQ^vee``: ``(omega_j, beta)`` is in ``pZ`` for every ``j``."""
    return not any(sum(map(mul, row, beta)) % (p * rs.form_den) for row in rs.form_int)


def _residue(rs: RootSystem, wt: Weight, p: int) -> tuple:
    """Root coordinates of ``wt`` mod ``p``, as numerators over ``rs.inv_cartan_den``:
    two weights differ by an element of ``pQ`` iff their residues agree, and
    ``wt`` is in ``pQ`` iff all are 0.  ``wt`` is not checked."""
    modulus = p * rs.inv_cartan_den
    return tuple(num % modulus for num in _root_numerator(rs, wt))


def identity_element(rank: int) -> AffineWeylElement:
    if not 0 < _as_instance(rank, int, "rank") <= sys.maxsize:  # a tuple's largest length
        raise DomainError(f"rank {rank} is {'not positive' if rank <= 0 else 'too large'}")
    return AffineWeylElement(Weight.zero(rank), IDENTITY)


def finite_element(rs: RootSystem, w: WeylElement) -> AffineWeylElement:
    weyl._apply_word(rs, _as_instance(w, WeylElement, "w").word, rs.rho)  # checks the letters
    return AffineWeylElement(Weight.zero(rs.rank), w)


def translation_element(rs: RootSystem, beta) -> AffineWeylElement:
    return AffineWeylElement(_as_weight(rs, beta, "translation"), IDENTITY)


def compose_affine(rs: RootSystem, g: AffineWeylElement, h: AffineWeylElement) -> AffineWeylElement:
    """(t_beta, w)(t_gamma, v) = (t_{beta + w(gamma)}, w v)."""
    g, h = _as_group_element(rs, g), _as_group_element(rs, h, what="h")
    moved = weyl.apply(rs, g.finite, h.translation)
    return AffineWeylElement(moved + g.translation, weyl.compose(rs, g.finite, h.finite))


def inverse_affine(rs: RootSystem, g: AffineWeylElement) -> AffineWeylElement:
    g = _as_group_element(rs, g)
    winv = weyl.inverse(rs, g.finite)
    return AffineWeylElement(-weyl.apply(rs, winv, g.translation), winv)


def translation_lattice_coords(rs: RootSystem, g: AffineWeylElement, level: Level) -> tuple[int, ...]:
    """Root-basis coordinates of the translation part, which lies in ``pQ^vee``."""
    return root_coords(rs, _as_group_element(rs, g, level).translation)


def affine_apply(rs: RootSystem, g: AffineWeylElement, lam, level: Level) -> Weight:
    """Dot action (t_beta, w) . lam = w . lam + beta; checks g, lam, then g's letters."""
    g = _as_group_element(rs, g, level)
    return _dot(rs, g, _as_weight(rs, lam))


def _dot(rs: RootSystem, g: AffineWeylElement, lam: Weight) -> Weight:
    """``g . lam`` for ``g`` checked at a level and a checked ``lam``, letters checked as applied;
    unchecked unless ``lam`` is rational, when ``Weight`` stores ``Fraction(2, 1)`` as ``2``."""
    word = g.finite.word
    if lam.is_integral and weyl._is_key(word):
        return _trusted(map(add, _finite_dot(rs, word, lam), g.translation))
    return Weight(map(add, _finite_dot.__wrapped__(rs, word, lam), g.translation))


@functools.lru_cache(maxsize=4096)
def _finite_dot(rs: RootSystem, word: tuple, lam: Weight) -> tuple:
    """``w . lam = w(lam + rho) - rho`` for ``w`` spelled by ``word``."""
    return tuple(map(sub, weyl._apply_word(rs, word, map(add, lam, rs.rho)), rs.rho))


def _as_label(rs: RootSystem, g, base: Weight, level: Level, what: str) -> AffineWeylElement:
    """``g`` at ``level``, respelled canonically, as the label of a dominant ``g . base``: the one
    label check of characters and submodule labels.  Only the identity of ``W x pQ^vee`` fixes a
    point of the open alcove, where ``base`` lies, so ``g`` is the walk's element for its image."""
    g = _as_group_element(rs, g, level, what)
    g = AffineWeylElement(g.translation, weyl.canonical_from_word(rs, g.finite.word))
    return _dominant_at(rs, g, base, what)


def _dominant_at(rs: RootSystem, g: AffineWeylElement, base: Weight, what: str):
    """Checked ``g`` once ``g . base`` is dominant: the one refusal of a key or generator."""
    image = _dot(rs, g, base)
    if not image.is_dominant:
        raise DomainError(
            f"{what} {_spelled(rs, g)} sends {base} to {image}, outside the dominant cone")
    return g


def _spelled(rs: RootSystem, g: AffineWeylElement) -> str:
    """``g`` as the CLI reads it: ``t[<root coords>]*<word>``, trivial parts left out, or ``e``."""
    beta = g.translation
    parts = [f"t[{','.join(map(str, root_coords(rs, beta)))}]"] if any(beta) else []
    return "*".join(parts + ([str(g.finite)] if g.finite.word else [])) or "e"


def theta_wall_reflection(rs: RootSystem, level: Level) -> AffineWeylElement:
    """The affine reflection through the wall (lam + rho, theta) = p."""
    return AffineWeylElement(_as_level(level).p * rs.theta, _theta_reflection(rs))


@functools.lru_cache(maxsize=None)
def _theta_reflection(rs: RootSystem) -> WeylElement:
    return weyl.reflection_in_root(rs, rs.theta)


def _theta_height(rs: RootSystem, coords):
    """(x, theta) = <x, theta^vee> since theta is long."""
    return sum(map(mul, rs.coroot_rows[-1], coords))


def _inside(rs: RootSystem, shifted, p: int, strict: bool = True) -> bool:
    """:func:`in_fundamental_alcove` for ``shifted = lam + rho``."""
    low, height = min(shifted), _theta_height(rs, shifted)
    return low > 0 and height < p if strict else low >= 0 and height <= p


def _off_walls(rs: RootSystem, shifted, p: int) -> bool:
    """:func:`is_regular` for ``shifted = lam + rho``."""
    return all(sum(map(mul, row, shifted)) % p for row in rs.coroot_rows)


def in_fundamental_alcove(rs: RootSystem, lam, level: Level, *, strict: bool = True) -> bool:
    """Membership of the open (``strict``) or closed fundamental alcove:
    ``lam + rho`` dominant (regular when strict) and
    ``0 < (lam + rho, theta) < p`` (``<=`` when not strict)."""
    return _inside(rs, [c + 1 for c in _as_weight(rs, lam)], _as_level(level).p, strict)


def is_regular(rs: RootSystem, lam, level: Level) -> bool:
    """No wall of the affine arrangement through lam: <lam+rho, alpha^vee>
    is not a multiple of p for any positive root alpha."""
    return _off_walls(rs, [c + 1 for c in _as_weight(rs, lam)], _as_level(level).p)


def _as_alcove_weight(rs: RootSystem, wt, level: Level, what: str = "weight", *,
                      regular: bool = False) -> Weight:
    """``wt`` as an integral ``Weight`` strictly inside the fundamental alcove
    and, when ``regular`` is set, off every wall at ``level``: the one alcove
    check of the public API, whose result private cores (:func:`_dot`) trust.
    Both tests are one lookup memoized per (root system, weight, ``p``)."""
    w = _as_weight(rs, wt, what, integral=True)
    inside, off_walls = _alcove_flags(rs, w, _as_level(level).p)
    if not inside:
        raise DomainError(f"{what} {w} is not strictly inside the fundamental "
                          f"alcove at level {level}")
    if regular and not off_walls:
        raise DomainError(f"{what} {w} is singular at level {level}")
    return w


@functools.lru_cache(maxsize=4096)
def _alcove_flags(rs: RootSystem, w: Weight, p: int) -> tuple[bool, bool]:
    """(strictly inside the fundamental alcove, off every wall) for an integral ``w`` at ``p``."""
    shifted = [c + 1 for c in w]
    return _inside(rs, shifted, p), _off_walls(rs, shifted, p)


def _alcove_walk(rs: RootSystem, x: list, p: int, letters: list | None = None) -> list:
    """Walk ``x = lam + rho`` in place into the closed fundamental alcove.

    First reduces ``x`` mod ``pQ^vee``, in the walk's group: ``x = sum_j (omega_j, x)
    alpha_j^vee`` loses ``p floor((omega_j, x) / p) alpha_j^vee`` for each ``j``.  Then it
    alternates the finite dominant walk with the reflection through the wall ``(x, theta) = p``;
    each step crosses one of the boundedly many walls between the reduced box and the alcove.
    When ``letters`` is a list, the finite part of each step is appended to it: a simple index
    for a finite reflection, the word of ``s_theta`` for the wall.  Returns ``x``.
    """
    den = rs.form_den
    for row, alpha in zip(rs.form_int, rs.simple_roots):  # alpha^vee = alpha / (omega_j, alpha)
        k = sum(map(mul, row, x)) // (p * den) * p * (den // sum(map(mul, row, alpha)))
        x[:] = [c - k * a for c, a in zip(x, alpha)]
    while True:
        weyl._dominant_walk(rs, x, letters)
        excess = _theta_height(rs, x) - p
        if excess <= 0:
            return x
        for k, t in enumerate(rs.theta):
            x[k] -= excess * t
        if letters is not None:
            letters.extend(_theta_reflection(rs).word)


@functools.lru_cache(maxsize=200_000)
def _alcove_rep_coords(rs: RootSystem, coords: tuple, p: int) -> tuple:
    """Representative of coords under the alcove walk, without group tracking."""
    x = _alcove_walk(rs, [c + 1 for c in coords], p)
    return tuple(c - 1 for c in x)


def alcove_rep(rs: RootSystem, lam, level: Level):
    """Alcove representative with group element and regularity flag.

    Returns ``(rep, g, regular)`` where ``rep`` lies in the closed fundamental alcove and
    ``affine_apply(rs, g, rep, level) == lam``, by :func:`_alcove_walk` from ``lam + rho``.  On a
    wall several ``g`` meet that contract; this is the walk's from the point reduced mod ``pQ^vee``.
    """
    lam = _as_weight(rs, lam, integral=True)
    p = _as_level(level).p
    letters: list[int] = []
    x = _alcove_walk(rs, [c + 1 for c in lam], p, letters)
    rep = _trusted(map(sub, x, rs.rho))
    # The reduction is a translation and every step an involution, so g = t L_1 ... L_k for the
    # steps in walk order.  Its finite part is the word of their finite parts; its translation
    # then follows from g . rep = lam: lam + rho - w(x).
    w = weyl.canonical_from_word(rs, tuple(letters))
    moved = weyl._apply_word(rs, w.word, x)
    g = AffineWeylElement(_trusted(map(sub, map(add, lam, rs.rho), moved)), w)
    return rep, g, _off_walls(rs, x, p)


def linked(rs: RootSystem, lam, mu, level: Level) -> bool:
    """Same orbit under the dot action of the affine Weyl group at this level:
    equal alcove representatives."""
    lam, mu = _as_weight(rs, lam), _as_weight(rs, mu)  # both ranks first
    lam, mu = _as_weight(rs, lam, integral=True), _as_weight(rs, mu, integral=True)
    p = _as_level(level).p
    return _alcove_rep_coords(rs, tuple(lam), p) == _alcove_rep_coords(rs, tuple(mu), p)


def _dominant_box(rs: RootSystem, height: int):
    """Dominant integral coordinate tuples lam with (lam + rho, theta) <=
    height, in lexicographic order: one axis at a time, never past the room
    left.  Every prefix extends to a weight, so each axis is counted before it
    is built and refused there above the cap; the last axis is lazy."""
    marks = rs.coroot_rows[-1]  # dual marks <omega_i, theta^vee>, all >= 1
    prefixes = [((), height - sum(marks))]  # (coords, room left); (rho, theta) = sum(marks)
    for axis, mark in enumerate(marks, 1):
        count = sum(left // mark + 1 for _, left in prefixes)
        if count > _DOMINANT_BOX_CAP:
            raise DomainError(f"dominant weights up to height {height} number at least "
                              f"{count}, above the cap of {_DOMINANT_BOX_CAP}")
        cells = ((coords + (c,), left - c * mark)
                 for coords, left in prefixes for c in range(left // mark + 1))
        prefixes = list(cells) if axis < len(marks) else cells
    return (coords for coords, _ in prefixes)


def enumerate_dominant(rs: RootSystem, level: Level) -> tuple[Weight, ...]:
    """All dominant integral weights in the open fundamental alcove, sorted
    lexicographically.  Empty when p is at most the dual Coxeter number."""
    return tuple(map(_trusted, _dominant_box(rs, _as_level(level).p - 1)))


def dominant_orbit(rs: RootSystem, lam, level: Level, bound=None):
    """Dominant integral weights in the dot orbit of lam with
    (weight + rho, theta) <= bound, each with its canonical group element.

    Returns a list of (element, weight) pairs sorted by weight.  The default
    bound is (lam + rho, theta) + 4p.
    """
    lam = _as_alcove_weight(rs, lam, level, "lam")
    p = level.p
    if bound is None:
        bound = _theta_height(rs, [c + 1 for c in lam]) + 4 * p
    out = []
    for coords in _dominant_box(rs, _as_instance(bound, int, "bound")):
        if _alcove_rep_coords(rs, coords, p) == lam:
            nu = _trusted(coords)
            _, g, _ = alcove_rep(rs, nu, level)
            out.append((g, nu))
    return out

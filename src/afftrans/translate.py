"""Translation between linkage classes, on labels and on characters.

A translation step is Jantzen's ``pr_lam(V_tau x -)``, with V_tau the module
whose extreme weight is the dominant representative of ``lam - mu``.  On
labels it sends ``g . mu`` to ``g . lam``; every public operation that claims
this reads one cached survivor search over the weights of V_tau, run once per
(mu, lam, level), and refuses to answer if the survivor is not unique.

Characters over a linkage class are stored in the Weyl basis: a base weight
strictly inside the fundamental alcove plus integer coefficients keyed by
canonical affine Weyl group elements.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, sub

from . import affine, finchar, weyl
from .affine import AffineWeylElement, Level, _as_alcove_weight, _residue
from .errors import DatumInvalidError, DomainError, InternalInconsistencyError
from .rootsys import (RootSystem, Weight, _a_or_an, _as_instance, _as_weight, _Frozen, _Record,
                      _root_numerator, _trusted)


class TranslationDatum(_Frozen):
    """A validated translation triple at a fixed level."""

    __slots__ = ("lam_left", "lam_right", "lam", "level")

    def __init__(self, lam_left: Weight, lam_right: Weight, lam: Weight, level: Level):
        self._store(lam_left, lam_right, lam, level)


def check_datum(rs: RootSystem, lam_left, lam_right, lam,
                level: Level) -> TranslationDatum:
    """Validate a translation triple; raise a diagnostic naming what failed.

    Requires all three weights in the dominant alcove P^+_k and the
    difference ``lam_left - lam`` in the plain Weyl orbit of ``lam_right``.
    """
    named = [("lam_left", _as_weight(rs, lam_left, "lam_left")),
             ("lam_right", _as_weight(rs, lam_right, "lam_right")),
             ("lam", _as_weight(rs, lam, "lam"))]
    for what, w in named:
        # P^+_k: dominant integral with (w + rho, theta) < p
        if not (w.is_integral and affine.in_fundamental_alcove(rs, w, level)):
            raise DatumInvalidError(
                f"{what} {w} is not in the dominant alcove at level {level}")
    left, right, base = (w for _, w in named)
    diff = left - base
    if tuple(weyl._dominant_walk(rs, list(diff))) != right:
        raise DatumInvalidError(
            f"difference {diff} is not in the Weyl orbit of lam_right {right}")
    return TranslationDatum(left, right, base, level)


def translation_weight(rs: RootSystem, lam, mu) -> Weight:
    """Dominant representative of ``lam - mu`` under the plain action."""
    diff = _as_weight(rs, lam, "lam") - _as_weight(rs, mu, "mu")
    diff = _as_weight(rs, diff, "difference", integral=True)
    return Weight(weyl._dominant_walk(rs, list(diff)))


def kl_weyl_filtration(rs: RootSystem, lam, mu, *,
                       cap: int = finchar.DEFAULT_CAP) -> dict:
    """Weyl-factor multiplicities of the truncated tensor product.

    By the level-independence of the filtration multiplicities this is the
    finite tensor decomposition, and it must agree with it exactly.
    """
    return finchar.tensor_decompose(rs, lam, mu, cap=cap)


def _linked_to(rs: RootSystem, target, p: int):
    """Whether coordinates are linked to ``target`` at ``p``: the one linkage filter."""
    rep = affine._alcove_rep_coords(rs, tuple(target), p)
    return lambda coords: affine._alcove_rep_coords(rs, coords, p) == rep


def project_linkage(rs: RootSystem, parts: dict, target, level: Level) -> dict:
    """Keep exactly the keys linked to ``target``; multiplicities unchanged."""
    _as_instance(parts, dict, "parts")
    linked = _linked_to(rs, _as_alcove_weight(rs, target, level, "target"), level.p)
    return {nu: m for nu, m in parts.items()
            if linked(tuple(_as_weight(rs, nu, "key", integral=True)))}


@lru_cache(maxsize=4096)
def _survivors(rs: RootSystem, tau: Weight, start: Weight, target, p: int) -> tuple:
    """``pr_target(V_tau x M_start)`` as (weight, mult) pairs by sorted weight: start + nu for
    each weight nu of V_tau, kept only if linked to ``target`` (closed alcove at ``p``).  The mass
    counts every term.  Cached, so a tuple: :func:`_translate` reads it at ``start = mu``, once
    per (mu, lam, level)."""
    terms = [(tuple(map(add, start, nu)), m) for nu, m in finchar._character(rs, tau)[0]]
    finchar._check_mass(rs, tau, start, sum(m * finchar._dim(rs, x) for x, m in terms))
    linked = _linked_to(rs, target, p)
    return tuple((_trusted(x), m) for x, m in terms if linked(x))


def translate_weyl(rs: RootSystem, g: AffineWeylElement, mu, lam,
                   level: Level, *, cap: int = finchar.DEFAULT_CAP) -> Weight:
    """Image of the Weyl-module label ``g . mu`` under translation to ``lam``.

    Returns ``g . lam`` only once it is certified: the part of ``V_tau x M_mu``
    linked to ``lam`` must be exactly ``lam``, with multiplicity one.  Since
    ``g . mu + nu = g . (mu + w^-1 nu)`` for ``g = t w``, that certifies
    ``{g . lam: 1}`` at every label (Jantzen, RAG II.7), so the search runs once
    per (mu, lam, level).  Each argument is checked once: ``mu``, ``lam``, then
    ``g`` (lattice, then letters), then the dominance of ``g . mu``, then ``cap``
    against the dimension product of V_tau and V_{g . mu}.
    """
    mu = _as_alcove_weight(rs, mu, level, "mu", regular=True)
    lam = _as_alcove_weight(rs, lam, level, "lam", regular=True)
    return _translate(rs, g, mu, lam, level, cap)


def _translate(rs: RootSystem, g, mu: Weight, lam: Weight, level: Level, cap: int,
               verma: bool = False) -> Weight:
    """:func:`translate_weyl` (:func:`translate_verma` when ``verma``) for checked ``mu``, ``lam``:
    the per-label checks, then ``g . lam`` once the certificate that :func:`_survivors` keeps,
    once per (mu, lam, level), is ``{lam: 1}``."""
    g = affine._as_group_element(rs, g, level)
    start = affine._dot(rs, g, mu)
    if not (verma or start.is_dominant):
        raise DomainError(f"g.mu {start} is not dominant integral")
    tau = weyl._dominant(rs, tuple(map(sub, lam, mu)))
    if verma:
        finchar._guard_dim(rs, tau, cap)
    else:
        finchar._guard(rs, tau, start, cap)
    survivors = _survivors(rs, tau, mu, lam, level.p)
    if survivors != ((lam, 1),):
        raise InternalInconsistencyError(
            f"{'Verma translation' if verma else 'translation'} of {mu} to the class of {lam} "
            f"on {rs.spec} at level {level} "
            f"has survivors {{{', '.join(f'{k}:{v}' for k, v in survivors)}}}, "
            f"expected {{{lam}:1}}")
    return affine._dot(rs, g, lam)


def verify_weight_geometry(rs: RootSystem, lam, mu, g: AffineWeylElement,
                           level: Level, bound) -> bool:
    """Whether ``g . lam`` is reached only the trivial way (Jantzen, RAG II.7).

    A solution of ``w1 . lam = g . mu + nu``, with ``w1 = (t_beta, w)`` affine and
    ``nu`` a weight of V_tau, is a ``nu`` whose ``g . mu + rho + nu`` has the residue
    mod ``pQ`` of ``w(lam + rho)``.  ``lam`` is regular, so that orbit has pairwise
    distinct residues and each ``nu`` meets at most one ``w``; ``g`` itself, whose
    translation is in ``pQ``, is one solution.  So the lemma holds iff exactly one
    weight of V_tau has a residue in the orbit's.  Like :func:`weyl.enumerate_elements`,
    a group of more than ``10**6`` elements is refused before any walk; ``g``'s
    letters are checked as ``g . mu`` is computed.
    """
    lam = _as_alcove_weight(rs, lam, level, "lam", regular=True)
    mu = _as_alcove_weight(rs, mu, level, "mu", regular=True)
    weyl._check_order(rs, 10 ** 6)
    g = affine._as_group_element(rs, g, level)
    start = _as_weight(rs, affine._dot(rs, g, mu), "g.mu", dominant=True)
    height = affine._theta_height(rs, [c + 1 for c in start])
    if height > _as_instance(bound, int, "bound"):
        raise DomainError(
            f"bound {bound} does not cover g.mu = {start} (height {height})")
    tau = weyl._dominant(rs, tuple(map(sub, lam, mu)))
    p, shifted_start = level.p, tuple(map(add, start, rs.rho))
    orbit = {_residue(rs, y, p) for y, _, _ in weyl._descend(rs, tuple(map(add, lam, rs.rho)))}
    return sum(_residue(rs, tuple(map(add, shifted_start, nu)), p) in orbit
               for nu in finchar.weight_multiplicities(rs, tau)) == 1


class LinkageCharacter(_Record):
    """Integer Weyl-basis character over one linkage class; mutable and
    unhashable.

    ``coeffs`` maps canonical affine Weyl group elements g (as produced by
    the alcove walk) to integers; a key g stands for the Weyl module with
    highest weight ``g . base``.  Keys whose image leaves the dominant cone
    are never stored.  It defaults to a fresh empty dict.
    """

    __slots__ = ("level", "base", "coeffs")
    __hash__ = None

    def __init__(self, level: Level, base: Weight, coeffs: dict | None = None):
        self.level = level
        self.base = base
        self.coeffs = {} if coeffs is None else coeffs


def _in_order(rs: RootSystem, elements) -> list:
    """Group elements by the root coordinates of their translation (as numerators), then word."""
    return sorted(elements, key=lambda g: (_root_numerator(rs, g.translation), g.finite.word))


def _int_items(coeffs):
    """The items of ``coeffs``, each once its value is an int: the one check of coefficients."""
    if not hasattr(coeffs, "items"):
        raise DomainError(f"coefficients must map group elements to integers, "
                          f"got {_a_or_an(type(coeffs).__name__)}")
    for g, c in coeffs.items():
        if type(c) is not int:  # bool is no coefficient
            raise DomainError(f"coefficient {c!r} is not an int")
        yield g, c


def make_character(rs: RootSystem, base, coeffs, level: Level) -> LinkageCharacter:
    """Validated, canonically ordered character over the class of ``base``."""
    base = _as_alcove_weight(rs, base, level, "base")
    cleaned = {}
    for g, c in _int_items(coeffs):
        if c == 0:
            continue
        g = affine._as_label(rs, g, base, level, "key")
        if g in cleaned:  # a second spelling passes the label check as the first did
            raise DomainError(f"two keys spell the element {affine._spelled(rs, g)}")
        cleaned[g] = c
    return LinkageCharacter(level, base, {g: cleaned[g] for g in _in_order(rs, cleaned)})


def translate_character(rs: RootSystem, chi: LinkageCharacter,
                        lam) -> LinkageCharacter:
    """Re-key a Weyl-basis character to the linkage class of ``lam``.

    Coefficients ride along unchanged, zeros too, once each is an int; a key is checked as a group
    element and refused if its image at the new base leaves the dominant cone (for regular bases
    none that :func:`make_character` accepts does).  The result holds the checked keys.
    """
    level = _as_instance(chi, LinkageCharacter, "chi").level
    _as_alcove_weight(rs, chi.base, level, "base", regular=True)
    lam = _as_alcove_weight(rs, lam, level, "lam", regular=True)
    coeffs = {affine._dominant_at(rs, affine._as_group_element(rs, g, level), lam, "key"): c
              for g, c in _int_items(chi.coeffs)}
    return LinkageCharacter(level, lam, {g: coeffs[g] for g in _in_order(rs, coeffs)})


def round_trip_check(rs: RootSystem, chi: LinkageCharacter, lam) -> bool:
    """Translate to ``lam`` and back; the checked coefficients must come back, or raise."""
    there = translate_character(rs, chi, lam)
    return translate_character(rs, there, chi.base).coeffs == there.coeffs


def verma_filtration(rs: RootSystem, lam, mu, *,
                     cap: int = finchar.DEFAULT_CAP) -> dict:
    """Verma-factor multiplicities of (module with extreme weight lam) x M_mu.

    Key ``nu`` carries ``dim V_lam[nu - mu]``; keys need not be dominant.
    """
    lam = _as_weight(rs, lam, dominant=True)
    mu = _as_weight(rs, mu, "mu", integral=True)
    return {mu + nu: m for nu, m in finchar.weight_multiplicities(rs, lam, cap=cap).items()}


def translate_verma(rs: RootSystem, g: AffineWeylElement, mu, lam,
                    level: Level, *, cap: int = finchar.DEFAULT_CAP) -> Weight:
    """Image of the Verma label ``g . mu`` under translation to ``lam``.

    Unlike :func:`translate_weyl` there is no dominance requirement on
    ``g . mu``, and ``cap`` bounds dim V_tau alone.  The answer is certified by
    the same survivor search, once per (mu, lam, level): the weights ``mu + nu``
    of ``V_tau x M_mu`` in the full dot orbit of ``lam``, unfolded, must be ``{lam: 1}``.
    """
    mu = _as_alcove_weight(rs, mu, level, "mu", regular=True)
    lam = _as_alcove_weight(rs, lam, level, "lam", regular=True)
    return _translate(rs, g, mu, lam, level, cap, verma=True)

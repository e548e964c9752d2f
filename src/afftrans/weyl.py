"""Finite Weyl group elements, plain and shifted (dot) actions.

Elements are stored by their canonical word, the lexicographically least
reduced word; equality and hashing go through it.  Every walk into the
dominant chamber is :func:`_dominant_walk`, which reflects at the smallest
simple index with a negative coordinate until none is left.

That walk also spells canonical words.  ``s_j`` is a left descent of ``w``
iff ``w^{-1}(alpha_j) < 0`` iff coordinate ``j`` of ``w(rho)`` is negative.
The lex-least reduced word is the smallest left descent ``j`` followed by
the lex-least reduced word of ``s_j w``; walking ``w(rho)`` to ``rho``
strips exactly those letters, so its letters are the canonical word.

Every orbit is listed by :func:`_descend`, that walk run backwards from the
dominant point: weight orbits, the group itself (the orbit of ``rho``) and
the signed sums of the character layer.

Three walks are memoized: :func:`canonical_from_word` per (root system, word), the finite part
of ``affine._dot`` per (root system, word, integral weight) and :func:`_dominant` per (root
system, coordinates).  A word is a key only as a tuple of ``int`` letters (:func:`_is_key`).  Any
other word, a list or one with a bool letter (equal to its int and hashed alike), is walked and
checked on every call, so no entry answers for a word that the walk refuses; a word that is no
sequence is refused by :func:`_letters` before any letter is read.
"""

from __future__ import annotations

import functools
from math import prod

from .errors import DomainError
from .rootsys import RootSystem, Weight, _as_instance, _as_weight, _Frozen, _trusted, pairing


class WeylElement(_Frozen):
    """A Weyl group element as its canonical (lex-least) reduced word: the
    letters of the dominant walk of ``w(rho)``.

    Construct via :func:`canonical_from_word` / :func:`compose` rather than
    directly, so that the word really is canonical.
    """

    __slots__ = ("word",)

    def __init__(self, word: tuple[int, ...]):
        _set_word(self, word)

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def is_identity(self) -> bool:
        return not self.word

    def __str__(self) -> str:
        return "e" if not self.word else "".join(f"s{i + 1}" for i in self.word)


_set_word = WeylElement.word.__set__  # the slot's setter, past __setattr__
IDENTITY = WeylElement(())


def _reflect_in_place(rs: RootSystem, coords: list, i: int) -> None:
    """``s_i`` on ``coords`` in place, over the nonzero entries of ``alpha_i`` only."""
    c = coords[i]
    if c:
        for k, a in enumerate(rs.simple_roots[i]):
            if a:
                coords[k] -= c * a


def _int_letter(i) -> bool:
    """Whether the letter ``i`` is an ``int`` (a bool is none): the one type test of a letter."""
    return type(i) is int


def _is_key(word) -> bool:
    """Whether ``word`` may key a cache of walks by word: a tuple of ``int`` letters."""
    return type(word) is tuple and all(map(_int_letter, word))


def _letters(word):
    """The letters of ``word``, last first: the one check that a word is a sequence."""
    try:
        return reversed(word)
    except TypeError:
        raise DomainError(f"Weyl word {word!r} is not a sequence of letters") from None


def _apply_word(rs: RootSystem, word, coords) -> list:
    """Apply s_{word[0]} ... s_{word[-1]} to coords (rightmost letter first),
    checking that each letter is a simple index of ``rs``."""
    n = len(rs.simple_roots)
    out = list(coords)
    for i in _letters(word):
        if not _int_letter(i):
            raise DomainError(f"Weyl word {tuple(word)} has letter {i!r}, which is not an int")
        if not 0 <= i < n:
            raise DomainError(f"Weyl word {tuple(word)} has letter {i} "
                              f"outside 0..{n - 1} for {rs.spec}")
        _reflect_in_place(rs, out, i)
    return out


def _dominant_walk(rs: RootSystem, x: list, letters: list | None = None) -> list:
    """Walk ``x`` in place into the dominant chamber and return it.

    When ``letters`` is a list, each simple index applied is appended to it,
    so that ``s_{letters[-1]} ... s_{letters[0]}`` maps the input to ``x``.
    """
    while True:
        for i, c in enumerate(x):
            if c < 0:
                _reflect_in_place(rs, x, i)
                if letters is not None:
                    letters.append(i)
                break
        else:
            return x


@functools.lru_cache(maxsize=4096)
def _dominant(rs: RootSystem, coords: tuple) -> Weight:
    """The dominant point of the W-orbit of the integral ``coords``."""
    return _trusted(_dominant_walk(rs, list(coords)))


def _word_of(rs: RootSystem, x: list) -> WeylElement:
    """The element ``w`` with ``w(rho) = x``, for ``x`` in the rho-orbit: the
    letters of the dominant walk of ``x`` (walked in place)."""
    letters: list[int] = []
    _dominant_walk(rs, x, letters)
    return WeylElement(tuple(letters))


def apply(rs: RootSystem, w: WeylElement, lam, *, shifted: bool = False) -> Weight:
    """w(lam) for the plain action, or w.lam = w(lam+rho)-rho when shifted."""
    word = _as_instance(w, WeylElement, "w").word
    lam = _as_weight(rs, lam)
    if shifted:
        out = _apply_word(rs, word, [c + 1 for c in lam])
        return Weight(c - 1 for c in out)
    return Weight(_apply_word(rs, word, lam))


def canonical_from_word(rs: RootSystem, word) -> WeylElement:
    """Canonicalize an arbitrary (not necessarily reduced) word: the letters
    of the dominant walk of ``w(rho)``, memoized when ``word`` is a key."""
    return (_canonical if _is_key(word) else _canonical.__wrapped__)(rs, word)


@functools.lru_cache(maxsize=4096)
def _canonical(rs: RootSystem, word: tuple) -> WeylElement:
    return _word_of(rs, _apply_word(rs, word, rs.rho))


def compose(rs: RootSystem, w: WeylElement, v: WeylElement) -> WeylElement:
    """The product w v (w applied after v)."""
    w, v = _as_instance(w, WeylElement, "w").word, _as_instance(v, WeylElement, "v").word
    return canonical_from_word(rs, (*_letters(v), *_letters(w))[::-1])  # w's letters, then v's


def inverse(rs: RootSystem, w: WeylElement) -> WeylElement:
    return canonical_from_word(rs, tuple(_letters(_as_instance(w, WeylElement, "w").word)))


def reflection_in_root(rs: RootSystem, alpha) -> WeylElement:
    """The reflection s_alpha as the word of s_alpha(rho); ``pairing``
    refuses an ``alpha`` that is not a root of the system."""
    alpha = Weight(alpha)
    c = pairing(rs, rs.rho, alpha)
    return _word_of(rs, [r - c * a for r, a in zip(rs.rho, alpha)])


def dominant_rep(rs: RootSystem, lam, *, shifted: bool = False):
    """Dominant representative of lam with the group element mapping lam to it.

    Returns ``(rep, w, regular)`` with ``apply(rs, w, lam, shifted=shifted) ==
    rep``.  The walk reflects at the smallest simple index with a strictly
    negative pairing, so for singular weights ``w`` has minimal length.
    ``regular`` reports whether the stabiliser (of lam+rho when shifted) is
    trivial.
    """
    lam = _as_weight(rs, lam)
    x = [c + 1 for c in lam] if shifted else list(lam)
    letters: list[int] = []
    _dominant_walk(rs, x, letters)
    w = canonical_from_word(rs, tuple(reversed(letters)))
    regular = all(c > 0 for c in x) if shifted else all(c != 0 for c in x)
    rep = Weight(c - 1 for c in x) if shifted else Weight(x)
    return rep, w, regular


def _descend(rs: RootSystem, start, bound: tuple | None = None) -> list:
    """(x, drop rc(start - x), depth parity) for every x in the W-orbit of the
    dominant ``start`` whose drop is at most ``bound``: breadth-first through
    the simple reflections that lower x, along which the drop only grows.
    Each point is listed once, at the length of the shortest w with
    ``x = w(start)``; from a regular start the depth parity is eps(w)."""
    level, sign, terms = {tuple(start): (0,) * rs.rank}, 1, []
    while level:
        terms.extend((x, drop, sign) for x, drop in level.items())
        level, sign = {tuple(a - c * b for a, b in zip(x, rs.simple_roots[i])):
                       drop[:i] + (drop[i] + c,) + drop[i + 1:]
                       for x, drop in level.items() for i, c in enumerate(x)
                       if 0 < c and (bound is None or drop[i] + c <= bound[i])}, -sign
    return terms


def orbit(rs: RootSystem, lam, *, shifted: bool = False) -> set[Weight]:
    """The full finite orbit of lam under the chosen action: the orbit of the
    dominant point of lam (of lam + rho when shifted)."""
    lam = _as_weight(rs, lam)
    if shifted:
        top = _dominant_walk(rs, [c + 1 for c in lam])
        return {Weight(c - 1 for c in x) for x, _, _ in _descend(rs, top)}
    return {Weight(x) for x, _, _ in _descend(rs, _dominant_walk(rs, list(lam)))}


@functools.lru_cache(maxsize=None)
def longest_element(rs: RootSystem) -> WeylElement:
    """w_0, the word of w_0(rho) = -rho."""
    return _word_of(rs, [-c for c in rs.rho])


def bar_involution(rs: RootSystem, lam) -> Weight:
    """The duality involution lam -> -w_0(lam) on dominant integral weights."""
    lam = _as_weight(rs, lam, dominant=True)
    out = -apply(rs, longest_element(rs), lam)
    assert out.is_dominant
    return out


@functools.lru_cache(maxsize=None)
def _order(rs: RootSystem) -> int:
    """|W| as the product of its degrees m + 1, which Phi and Phi^vee share: the
    exponents m are the dual partition of the numbers of positive coroots per height."""
    heights = [sum(row) for row in rs.coroot_rows]
    counts = [heights.count(h) for h in range(1, max(heights) + 1)]
    return prod(1 + sum(n >= i for n in counts) for i in range(1, rs.rank + 1))


def _check_order(rs: RootSystem, max_size: int | None) -> None:
    """Refuse, before any walk, a Weyl group of more than ``max_size``
    elements (``None``: no limit)."""
    if max_size is not None and _order(rs) > _as_instance(max_size, int, "max_size"):
        raise DomainError(f"Weyl group of {rs.spec} exceeds max_size={max_size}")


def enumerate_elements(rs: RootSystem, max_size: int | None = 10 ** 6) -> list[WeylElement]:
    """All elements of the finite Weyl group, sorted by (length, word): the
    words of the rho-orbit, on which W acts simply transitively.

    Only sensible at small rank; ``max_size`` guards against accidents.
    """
    _check_order(rs, max_size)
    elements = [_word_of(rs, list(x)) for x, _, _ in _descend(rs, rs.rho)]
    return sorted(elements, key=lambda w: (w.length, w.word))


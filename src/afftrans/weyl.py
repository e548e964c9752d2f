"""Finite Weyl group elements, plain and shifted (dot) actions.

Elements are stored by their canonical reduced word: the lexicographically
least reduced word, obtained by repeatedly stripping the smallest left
descent.  Equality and hashing go through that canonical form.

Every walk into the dominant chamber is :func:`_dominant_walk`: it reflects
at the smallest simple index with a negative coordinate until none is left,
and records the letters it applies only when asked to.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import DomainError, InternalInconsistencyError
from .rootsys import RootSystem, Weight, _as_weight, pairing


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element as its canonical (lex-least) reduced word.

    Construct via :func:`canonical_from_word` / :func:`compose` rather than
    directly, so that the word really is canonical.
    """

    word: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def is_identity(self) -> bool:
        return not self.word

    def __str__(self) -> str:
        return "e" if not self.word else "".join(f"s{i + 1}" for i in self.word)


IDENTITY = WeylElement(())


def _reflect_in_place(rs: RootSystem, coords: list, i: int) -> None:
    c = coords[i]
    if c:
        col = rs.simple_roots[i]
        for k in range(rs.rank):
            coords[k] -= c * col[k]


def _apply_word(rs: RootSystem, word, coords) -> list:
    """Apply s_{word[0]} ... s_{word[-1]} to coords (rightmost letter first)."""
    out = list(coords)
    for i in reversed(word):
        _reflect_in_place(rs, out, i)
    return out


def apply(rs: RootSystem, w: WeylElement, lam, *, shifted: bool = False) -> Weight:
    """w(lam) for the plain action, or w.lam = w(lam+rho)-rho when shifted."""
    lam = _as_weight(rs, lam)
    if shifted:
        out = _apply_word(rs, w.word, [c + 1 for c in lam])
        return Weight(c - 1 for c in out)
    return Weight(_apply_word(rs, w.word, lam))


def _canonical_from_inverse_rows(rs: RootSystem, minv: list[list]) -> tuple[int, ...]:
    """Canonical word of w given the rows of w^{-1} (row i = image of e_i).

    Greedy: the first letter of the lex-least reduced word is the smallest j
    with w^{-1}(alpha_j) negative; strip it and repeat.
    """
    n = rs.rank
    neg = rs.negative_root_set
    word = []
    cap = len(rs.positive_roots)
    for _ in range(cap + 1):
        if all(minv[i][k] == int(i == k) for i in range(n) for k in range(n)):
            return tuple(word)
        for j in range(n):
            col_aj = rs.simple_roots[j]
            # A plain tuple hashes and compares like the Weight it equals.
            img = tuple(sum(minv[i][k] * col_aj[i] for i in range(n)) for k in range(n))
            if img in neg:
                word.append(j)
                # w <- s_j w, hence w^{-1} <- w^{-1} s_j: only row j moves,
                # since s_j(e_i) = e_i - delta_ij alpha_j.
                minv[j] = [minv[j][k] - img[k] for k in range(n)]
                break
        else:
            raise InternalInconsistencyError("no descent found for a non-identity element")
    raise InternalInconsistencyError("canonicalization exceeded the longest-element length")


def canonical_from_word(rs: RootSystem, word) -> WeylElement:
    """Canonicalize an arbitrary (not necessarily reduced) word."""
    n = rs.rank
    rev = tuple(reversed(tuple(word)))
    # Rows of minv are the images of the unit weights under w^{-1}.
    minv = [_apply_word(rs, rev, [int(i == j) for j in range(n)]) for i in range(n)]
    return WeylElement(_canonical_from_inverse_rows(rs, minv))


def compose(rs: RootSystem, w: WeylElement, v: WeylElement) -> WeylElement:
    """The product w v (w applied after v)."""
    return canonical_from_word(rs, w.word + v.word)


def inverse(rs: RootSystem, w: WeylElement) -> WeylElement:
    return canonical_from_word(rs, tuple(reversed(w.word)))


def reflection_in_root(rs: RootSystem, alpha) -> WeylElement:
    """The reflection s_alpha as a canonical Weyl element.

    ``pairing`` refuses an ``alpha`` that is not a root of the system.
    """
    alpha = Weight(alpha)
    n = rs.rank
    # Rows of the (symmetric, involutive) matrix of s_alpha.
    minv = []
    for i in range(n):
        e_i = [int(i == j) for j in range(n)]
        c = pairing(rs, e_i, alpha)
        minv.append([e_i[k] - c * alpha[k] for k in range(n)])
    return WeylElement(_canonical_from_inverse_rows(rs, minv))


def _dominant_walk(rs: RootSystem, x: list, letters: list | None = None) -> list:
    """Walk ``x`` in place into the dominant chamber and return it.

    When ``letters`` is a list, each simple index applied is appended to it,
    so that ``s_{letters[-1]} ... s_{letters[0]}`` maps the input to ``x``.
    """
    n = rs.rank
    while True:
        for i in range(n):
            if x[i] < 0:
                _reflect_in_place(rs, x, i)
                if letters is not None:
                    letters.append(i)
                break
        else:
            return x


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
    w = canonical_from_word(rs, reversed(letters))
    regular = all(c > 0 for c in x) if shifted else all(c != 0 for c in x)
    rep = Weight(c - 1 for c in x) if shifted else Weight(x)
    return rep, w, regular


def orbit(rs: RootSystem, lam, *, shifted: bool = False) -> set[Weight]:
    """The full finite orbit of lam under the chosen action."""
    lam = _as_weight(rs, lam)
    start = Weight([c + 1 for c in lam]) if shifted else lam
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for x in frontier:
            for i in range(rs.rank):
                y = list(x)
                _reflect_in_place(rs, y, i)
                yw = Weight(y)
                if yw not in seen:
                    seen.add(yw)
                    new.append(yw)
        frontier = new
    if shifted:
        return {Weight(c - 1 for c in x) for x in seen}
    return seen


@functools.lru_cache(maxsize=None)
def longest_element(rs: RootSystem) -> WeylElement:
    """w_0, read off from the dominant representative walk applied to -rho."""
    _, w, _ = dominant_rep(rs, -rs.rho)
    return w


def bar_involution(rs: RootSystem, lam) -> Weight:
    """The duality involution lam -> -w_0(lam) on dominant integral weights."""
    lam = _as_weight(rs, lam, dominant=True)
    out = -apply(rs, longest_element(rs), lam)
    assert out.is_dominant
    return out


def enumerate_elements(rs: RootSystem, max_size: int | None = 10 ** 6) -> list[WeylElement]:
    """All elements of the finite Weyl group, sorted by (length, word).

    Only sensible at small rank; ``max_size`` guards against accidents.
    """
    seen = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        new = []
        for w in frontier:
            for i in range(rs.rank):
                nxt = compose(rs, w, WeylElement((i,)))
                if nxt not in seen:
                    seen.add(nxt)
                    new.append(nxt)
            if max_size is not None and len(seen) > max_size:
                raise DomainError(f"Weyl group of {rs.spec} exceeds max_size={max_size}")
        frontier = new
    return sorted(seen, key=lambda w: (w.length, w.word))

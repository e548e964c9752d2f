"""Exact root-system data for the simple Lie types A-G.

All weights live in the fundamental-weight basis.  The core computes in
integers (rational matrices are kept scaled over one common denominator);
``fractions.Fraction`` appears only for non-integral weights, and no
floating point is used anywhere.  Nodes are numbered as in Bourbaki and the
invariant bilinear form is normalised so that long roots have squared length 2.
``_trusted`` builds a ``Weight`` without the check of ``Weight.__new__``, only from ints the
library computed from integral-checked inputs (the walks of finchar, the affine and translation
cores).  Where a rational may arrive the check stays, since ``Weight`` normalises
``Fraction(2, 1)`` to ``2``: ``weyl.apply``, and ``affine._dot`` for a rational weight, which
only ``affine_apply`` takes.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul

from .errors import DomainError, InexactCoordinateError, InvalidRootSystemError

_INT_ONLY = frozenset({int})
_TEXT = frozenset({str, bytes, bytearray})  # iterable, but neither a number nor a weight


def _exact(value) -> int | Fraction:
    if type(value) is int:
        return value
    # Floats are rejected outright: exactness is a hard invariant of Weight.
    if isinstance(value, float):
        raise InexactCoordinateError(f"floating point coordinate {value!r} is not allowed")
    try:  # Fraction would parse a str and widen a bool: refuse both
        f = None if isinstance(value, (str, bool)) else Fraction(value)
    except (TypeError, ValueError, OverflowError):
        f = None
    if f is None:
        raise DomainError(f"coordinate {value!r} is {_a_or_an(type(value).__name__)}, not a number")
    return int(f) if f.denominator == 1 else f


def _a_or_an(name: str) -> str:
    """``name`` after its indefinite article: ``an int``, ``a Level``."""
    return f"{'an' if name[0] in 'AEIOUaeiou' else 'a'} {name}"


class Weight(tuple):
    """A weight vector in fundamental-weight coordinates with exact entries.

    Supports addition/subtraction (a ``DomainError`` names both operands when the
    other is no weight of this length), negation and scalar multiplication by ints
    or Fractions; immutable, hashable, compared and sorted like tuples.  A float
    coordinate is an ``InexactCoordinateError``, any other non-number a ``DomainError``.
    """

    __slots__ = ()

    def __new__(cls, coords):
        try:
            wt = None if type(coords) in _TEXT else super().__new__(cls, coords)
        except TypeError:  # not iterable, or raised while making the coordinates
            wt = None
        if wt is None:
            raise DomainError(f"weight {coords!r} is not a sequence of numbers")
        if _INT_ONLY.issuperset(map(type, wt)):
            return wt
        return super().__new__(cls, map(_exact, wt))

    @classmethod
    def zero(cls, rank: int) -> "Weight":
        return cls((0,) * rank)

    def __add__(self, other):
        try:
            return Weight(a + b for a, b in zip(self, other, strict=True))
        except (TypeError, ValueError, DomainError):
            raise DomainError(f"cannot compute weight {self} + {other!r}") from None

    def __sub__(self, other):
        try:
            return Weight(a - b for a, b in zip(self, other, strict=True))
        except (TypeError, ValueError, DomainError):
            raise DomainError(f"cannot compute weight {self} - {other!r}") from None

    def __neg__(self):
        return Weight(-a for a in self)

    def __mul__(self, scalar):
        scalar = _exact(scalar)
        return Weight(scalar * a for a in self)

    __rmul__ = __mul__

    @property
    def is_integral(self) -> bool:
        return _INT_ONLY.issuperset(map(type, self))

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self)

    def __str__(self) -> str:
        return f"[{','.join(map(str, self))}]"

    def __repr__(self) -> str:  # no coordinate's str holds a quote or a backslash
        return f"Weight('[{','.join(map(str, self))}]')"


_trusted = functools.partial(tuple.__new__, Weight)  # see the module docstring

# Minimal ranks per series; C2 and D3 are admitted (they are valid simple
# Cartan data, isomorphic to B2 and A3 respectively).
_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_TYPE_RE = re.compile(r"^([A-G])([0-9]+)$")


class _Record:
    """Base of the record classes.  Each subclass derives its equality, hash,
    repr and pickling once, when the class is created, from its
    ``__slots__``, which name the constructor's arguments in order:

    - ``==`` compares the slot values, only between instances of the same
      class (``NotImplemented`` for any other);
    - the hash is ``hash((slot, ...))``;
    - the repr is ``Name(slot=value, ...)``;
    - copies and pickles call the class with the slot values.

    A method the subclass defines itself is kept.  The class keywords
    ``compared=n`` and ``shown=n`` restrict equality and the hash, and the
    repr, to the first ``n`` slots.
    """

    __slots__ = ()

    def __init_subclass__(cls, compared=None, shown=None):
        super().__init_subclass__()
        slots = cls.__slots__
        if not slots:  # a layer of the base, such as _Frozen
            return
        fields, shown = slots[:compared], slots[:shown]
        get = attrgetter(*fields)

        def __eq__(self, other):
            if other.__class__ is not cls:
                return NotImplemented
            return get(self) == get(other)

        if len(fields) == 1:  # attrgetter of one name returns no tuple
            def __hash__(self):
                return hash((get(self),))
        else:
            def __hash__(self):
                return hash(get(self))

        def __repr__(self):
            return f"{cls.__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in shown)})"

        def __reduce__(self):
            return cls, tuple(getattr(self, field) for field in slots)

        for method in (__eq__, __hash__, __repr__, __reduce__):
            if method.__name__ not in cls.__dict__:
                setattr(cls, method.__name__, method)


class _Frozen(_Record):
    """The immutable records.  Assignment and deletion raise
    ``AttributeError``, so constructors store through :meth:`_store` or a
    slot's own ``__set__``."""

    __slots__ = ()

    def _store(self, *values):
        """Set the slots, in order, to ``values``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RootSystemSpec(_Frozen):
    """A simple type identifier such as A2 or E8; validated at construction."""

    __slots__ = ("series", "rank")

    def __init__(self, series: str, rank: int):
        lo_hi = _RANK_RANGE.get(series)
        if lo_hi is None or type(rank) is not int:  # bool is no rank
            raise InvalidRootSystemError(f"invalid root system type {series}{rank}")
        lo, hi = lo_hi
        if rank < lo or (hi is not None and rank > hi):
            raise InvalidRootSystemError(f"invalid root system type {series}{rank}")
        self._store(series, rank)

    @classmethod
    def parse(cls, text: str) -> "RootSystemSpec":
        if not isinstance(text, str):
            raise InvalidRootSystemError(f"unknown type {text!r}")
        m = _TYPE_RE.match(text.strip())
        if m is None:
            raise InvalidRootSystemError(f"unknown type {text}")
        try:
            return cls(m.group(1), int(m.group(2)))
        except InvalidRootSystemError:
            raise InvalidRootSystemError(f"unknown type {text}") from None

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def _cartan_matrix(series: str, rank: int) -> list[list[int]]:
    """Cartan matrix with entry [i][j] = <alpha_j, alpha_i^vee> (Bourbaki numbering)."""
    n = rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j):
        a[i][j] = a[j][i] = -1

    if series in ("A", "B", "C"):
        for i in range(n - 1):
            edge(i, i + 1)
        if series == "B" and n >= 2:
            a[n - 1][n - 2] = -2  # alpha_n short
        if series == "C" and n >= 2:
            a[n - 2][n - 1] = -2  # alpha_n long
    elif series == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
    elif series == "E":
        chain = [0] + list(range(2, n))
        for i, j in zip(chain, chain[1:]):
            edge(i, j)
        edge(1, 3)
    elif series == "F":
        for i in range(3):
            edge(i, i + 1)
        a[2][1] = -2  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
    elif series == "G":
        a[0][1] = -3  # alpha_1 short, alpha_2 long
        a[1][0] = -1
    return a


class RootSystem(_Frozen, compared=15, shown=9):
    """Immutable root-system data; build with :func:`build_root_system`.

    ``cartan[i][j]`` is the pairing of the j-th simple root against the i-th
    simple coroot, so the columns of ``cartan`` are the simple roots in
    fundamental-weight coordinates.  ``form`` is the matrix of the invariant
    bilinear form on those coordinates, normalised so ``(theta, theta) = 2``.

    The fields from ``inv_cartan`` on are derived lookup tables (the same
    data in other shapes, kept for speed) and are left out of the repr;
    ``inv_cartan``/``form`` are the ``Fraction`` views of the integer tables
    ``inv_cartan_int``/``form_int`` over ``inv_cartan_den``/``form_den`` (in
    lowest terms).  Equality ignores ``root_index`` and ``negative_root_set``.
    """

    __slots__ = ("spec", "cartan", "simple_roots", "fundamental_weights",
                 "positive_roots", "rho", "theta", "dual_coxeter", "form",
                 "inv_cartan", "inv_cartan_int", "inv_cartan_den", "form_int",
                 "form_den", "coroot_rows", "root_index", "negative_root_set",
                 "_hash")

    def __init__(self, spec: RootSystemSpec, cartan: tuple, simple_roots: tuple,
                 fundamental_weights: tuple, positive_roots: tuple, rho: Weight,
                 theta: Weight, dual_coxeter: int, form: tuple, inv_cartan: tuple,
                 inv_cartan_int: tuple, inv_cartan_den: int, form_int: tuple,
                 form_den: int, coroot_rows: tuple, root_index: dict,
                 negative_root_set: frozenset):
        # The spec determines every other field, and instances are cached
        # singletons; every lru_cache lookup hashes them, so hash once.
        self._store(spec, cartan, simple_roots, fundamental_weights, positive_roots,
                    rho, theta, dual_coxeter, form, inv_cartan, inv_cartan_int,
                    inv_cartan_den, form_int, form_den, coroot_rows, root_index,
                    negative_root_set, hash(spec))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return build_root_system, (self.spec,)

    @property
    def rank(self) -> int:
        return self.spec.rank

    @property
    def is_simply_laced(self) -> bool:
        return self.spec.series in ("A", "D", "E")

    def __str__(self) -> str:
        return str(self.spec)


def _positive_root_closure(cartan: list[list[int]], rank: int) -> list[tuple]:
    """All positive roots as (fundamental coords, root-basis coords, coroot
    coords in the simple coroots), by height: the simple roots under every
    simple reflection that raises a root (the twin of :func:`weyl._descend`;
    a non-simple positive root has a simple reflection lowering it to a
    positive root).  ``s_i`` sends ``alpha`` to ``alpha - <alpha, alpha_i^vee>
    alpha_i`` and ``alpha^vee`` to ``alpha^vee - <alpha_i, alpha^vee>
    alpha_i^vee``: integer steps.  The root coordinates feed the form's Gram
    sum in :func:`build_root_system`; the coroot ones are the pairing rows."""
    cols = [tuple(cartan[i][j] for i in range(rank)) for j in range(rank)]
    unit = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    roots = level = {cols[j]: (unit[j], unit[j]) for j in range(rank)}
    while level:
        level = {tuple(a - c * b for a, b in zip(alpha, cols[i])):
                 (rc[:i] + (rc[i] - c,) + rc[i + 1:],
                  cc[:i] + (cc[i] - sum(map(mul, cc, cols[i])),) + cc[i + 1:])
                 for alpha, (rc, cc) in level.items() for i, c in enumerate(alpha) if c < 0}
        roots.update(level)
    return sorted(((Weight(alpha), rc, cc) for alpha, (rc, cc) in roots.items()),
                  key=lambda item: (sum(item[1]), item[0]))


def _scaled(rows: list, den: int) -> tuple[tuple, int]:
    """The table ``rows / den`` in lowest terms: rows and den over their gcd."""
    g = gcd(den, *(x for row in rows for x in row))
    return tuple(tuple(x // g for x in row) for row in rows), den // g


def build_root_system(spec: RootSystemSpec) -> RootSystem:
    """Construct (and cache) the full root-system data for a valid type."""
    return _build_root_system(_as_instance(spec, RootSystemSpec, "spec"))


@functools.lru_cache(maxsize=None)  # checked by build_root_system, before its lookup
def _build_root_system(spec: RootSystemSpec) -> RootSystem:
    n = spec.rank
    cartan = _cartan_matrix(spec.series, spec.rank)
    roots, root_rows, coroot_rows = zip(*_positive_root_closure(cartan, n))
    theta = roots[-1]
    assert theta.is_dominant and sum(root_rows[-1]) == max(map(sum, root_rows))
    # The Killing form is 2h^vee times the form with (theta, theta) = 2 (Kac, ch. 6): the Gram
    # sum g_ij of rc_i rc_j over alpha > 0 is h (s_i omega_i, s_j omega_j), where s_j = 2/(alpha_j,
    # alpha_j) = rc_j(theta)/cc_j(theta); so g_ij/(s_j h) = inv_cartan[i][j] = s_i form[i][j]
    h = 1 + sum(coroot_rows[-1])  # 1 + height of theta^vee
    s = [r // c for r, c in zip(root_rows[-1], coroot_rows[-1])]
    t, cols = lcm(*s), list(zip(*root_rows))
    inv = [[sum(map(mul, a, b)) * (t // u) for b, u in zip(cols, s)] for a in cols]
    inv_int, inv_den = _scaled(inv, t * h)
    form_int, form_den = _scaled([[x * (t // u) for x in r] for r, u in zip(inv, s)], t * t * h)

    root_index = {}
    for idx, alpha in enumerate(roots):
        root_index[alpha] = idx
        root_index[-alpha] = ~idx  # bitwise-not marks the negative root
    negative_root_set = frozenset(-alpha for alpha in roots)

    return RootSystem(
        spec=spec,
        cartan=tuple(tuple(row) for row in cartan),
        simple_roots=tuple(Weight(cartan[i][j] for i in range(n)) for j in range(n)),
        fundamental_weights=tuple(Weight(int(i == j) for i in range(n)) for j in range(n)),
        positive_roots=roots,
        rho=Weight((1,) * n),
        theta=theta,
        dual_coxeter=h,
        form=tuple(tuple(Fraction(x, form_den) for x in row) for row in form_int),
        inv_cartan=tuple(tuple(Fraction(x, inv_den) for x in row) for row in inv_int),
        inv_cartan_int=inv_int,
        inv_cartan_den=inv_den,
        form_int=form_int,
        form_den=form_den,
        coroot_rows=coroot_rows,
        root_index=root_index,
        negative_root_set=negative_root_set,
    )


def root_system(text: str) -> RootSystem:
    """Convenience wrapper: ``root_system("A2")``."""
    return build_root_system(RootSystemSpec.parse(text))


def _as_weight(rs: RootSystem, wt, what: str = "weight", *,
               integral: bool = False, dominant: bool = False) -> Weight:
    """``wt`` as a ``Weight`` of the rank of ``rs``; also integral when
    ``integral`` is set, and dominant integral when ``dominant`` is set.

    This is the one rank, integrality and dominance check of the public API
    (floats and other non-numbers are refused by ``Weight`` itself).
    """
    w = wt if isinstance(wt, Weight) else Weight(wt)
    if len(w) != len(rs.cartan):
        raise DomainError(f"{what} {w} has wrong rank for {rs.spec}")
    if dominant and not (w.is_integral and w.is_dominant):
        raise DomainError(f"{what} {w} is not dominant integral")
    if integral and not w.is_integral:
        raise DomainError(f"{what} {w} is not integral")
    return w


def _as_instance(value, cls: type, what: str):
    """``value`` once it is a ``cls``, an ``int`` exactly (``bool`` is no count):
    the one type check of the group elements, levels, records and integer
    arguments the public API takes; a ``DomainError`` names ``what``."""
    if not (type(value) is int if cls is int else isinstance(value, cls)):
        found, wanted = _a_or_an(type(value).__name__), _a_or_an(cls.__name__)
        raise DomainError(f"{what} is {found}, not {wanted}")
    return value


def _divide(num, den: int) -> int | Fraction:
    """num / den for an int or Fraction numerator: int when exact."""
    return num // den if num % den == 0 else Fraction(num, den)


def _form_numerator(rs: RootSystem, lam, mu) -> int | Fraction:
    """``rs.form_den * (lam, mu)``, an integer for integral weights."""
    total = 0
    for a, row in zip(lam, rs.form_int):
        if a:
            total += a * sum(b * f for b, f in zip(mu, row) if b)
    return total


def bilinear(rs: RootSystem, lam, mu) -> int | Fraction:
    """Invariant bilinear form (lam, mu) in fundamental coordinates."""
    lam, mu = _as_weight(rs, lam), _as_weight(rs, mu)
    return _divide(_form_numerator(rs, lam, mu), rs.form_den)


def _root_numerator(rs: RootSystem, wt) -> tuple:
    """``rs.inv_cartan_den`` times the simple-root coordinates of ``wt``
    (``inv_cartan_int . wt``): integers for an integral weight.  The one
    root-coordinate formula; ``wt`` is not checked."""
    return tuple(sum(map(mul, row, wt)) for row in rs.inv_cartan_int)


def root_coords(rs: RootSystem, wt) -> tuple:
    """Coordinates of ``wt`` in the simple-root basis (exact rationals): the
    numerators of :func:`_root_numerator` over ``rs.inv_cartan_den``."""
    den = rs.inv_cartan_den
    return tuple(_divide(num, den) for num in _root_numerator(rs, _as_weight(rs, wt)))


def pairing(rs: RootSystem, lam, alpha) -> int | Fraction:
    """Coroot pairing <lam, alpha^vee> = 2(lam, alpha)/(alpha, alpha).

    ``alpha`` must be a root of the system; anything else is an error.
    """
    lam = _as_weight(rs, lam)
    idx = rs.root_index.get(Weight(alpha) if not isinstance(alpha, Weight) else alpha)
    if idx is None:
        raise DomainError(f"{Weight(alpha)} is not a root of {rs.spec}")
    sign = 1
    if idx < 0:
        idx, sign = ~idx, -1
    row = rs.coroot_rows[idx]
    return _divide(sign * sum(c * x for c, x in zip(row, lam) if c), 1)


def coroot_pairings(rs: RootSystem, lam) -> list:
    """<lam, alpha^vee> for every positive root alpha, in root order."""
    lam = _as_weight(rs, lam)
    return [_divide(sum(c * x for c, x in zip(row, lam) if c), 1)
            for row in rs.coroot_rows]

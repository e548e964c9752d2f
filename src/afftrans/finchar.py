"""Characters of finite-dimensional highest-weight modules.

Weight multiplicities via Freudenthal's recursion, exact Weyl dimensions,
and tensor-product decomposition by the signed-reflection (Racah) rule; when
``lam_i + min_i >= 0`` for every ``i`` (``min_i`` the least coordinate ``i`` over
the weights nu of the smaller factor V_mu) nothing reflects, and the answer is
``{lam + nu: m_mu(nu)}``.  ``tensor_oracle`` cross-checks it along an independent
path: multiply the two characters, each packed once into a cached integer of
little-endian ``struct`` cells (format ``<{n}{limb}``, one layout on every host), then
read the Weyl character formula off the product, one signed run of cells per nu.

All arithmetic is exact, in integers (the form scaled by ``RootSystem.form_den``) and the
standard library only.  Each dominant orbit is walked once per process (:func:`_orbit`) and
laid flat once per box strides (:func:`_flat_orbit`); each character is built once from those
walks, then cached by :func:`_character` as sorted (weight, mult) pairs, drop columns beside the
multiplicities, and the ``min_i``.  The walks' weights become ``Weight``s unchecked
(``rootsys._trusted``): they are integers that this module computed itself.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, compress, repeat
from math import prod
from operator import add, le, mul, sub
from struct import calcsize, pack, unpack

from . import weyl
from .errors import DimensionCapError, InternalInconsistencyError
from .rootsys import (RootSystem, Weight, _as_instance, _as_weight, _form_numerator,
                      _root_numerator, _trusted)

#: Default refusal threshold for the product of the two factor dimensions.
DEFAULT_CAP = 10**6


def _guard(rs: RootSystem, lam: Weight, mu: Weight, cap: int) -> None:
    product = _dim(rs, lam) * _dim(rs, mu)
    if product > _as_instance(cap, int, "cap"):
        raise DimensionCapError(
            f"dimension product {product} exceeds cap {cap}")


def _guard_dim(rs: RootSystem, lam: Weight, cap: int) -> None:
    if _dim(rs, lam) > _as_instance(cap, int, "cap"):
        raise DimensionCapError(f"dimension {_dim(rs, lam)} exceeds cap {cap}")


def _check_mass(rs: RootSystem, lam: Weight, mu: Weight, mass: int) -> None:
    if mass != _dim(rs, lam) * _dim(rs, mu):
        raise InternalInconsistencyError(f"tensor mass mismatch for {lam} x {mu} on {rs.spec}")


@lru_cache(maxsize=4096)
def _dim(rs: RootSystem, lam: Weight) -> int:
    num = den = 1
    for row in rs.coroot_rows:
        num *= sum(r * (c + 1) for r, c in zip(row, lam))
        den *= sum(row)
    assert num % den == 0
    return num // den


def dimension(rs: RootSystem, lam) -> int:
    """Dimension of the module with highest weight ``lam`` (exact product formula)."""
    return _dim(rs, _as_weight(rs, lam, dominant=True))


@lru_cache(maxsize=None)
def _root_data(rs: RootSystem):
    """Per positive root: (fundamental coords, coroot row, ``rs.form_den *
    (alpha, alpha) / 2``, root coords).  The third entry is always an integer;
    using it keeps the Freudenthal recursion in pure integers."""
    out, den = [], rs.inv_cartan_den
    for alpha, row in zip(rs.positive_roots, rs.coroot_rows):
        half, odd = divmod(_form_numerator(rs, alpha, alpha), 2)
        assert not odd
        out.append((alpha, row, half, tuple(n // den for n in _root_numerator(rs, alpha))))
    return tuple(out)


def _dominant_below(rs: RootSystem, lam: Weight):
    """All (drop, nu) with nu dominant and lam - nu a nonnegative root sum,
    sorted by (height, drop); ``drop`` is the simple-root coordinates of
    lam - nu.  Every such nu is a weight of the module with highest weight lam.
    Breadth-first from lam down the positive roots, through dominant points
    only: by Stembridge ("The partial order of dominant weights", Adv. Math.
    136, 1998) every dominant nu < lam lies below a dominant lam - alpha.
    The walk is over plain tuples; each nu becomes a ``Weight`` at the end."""
    roots = [(alpha, rc) for alpha, _, _, rc in _root_data(rs)]
    cells, seen = [((0,) * rs.rank, tuple(lam))], set()
    for drop, nu in cells:  # breadth-first: the list grows as it is read
        for alpha, rc in roots:
            if all(map(le, alpha, nu)):
                down = tuple(map(add, drop, rc))
                if down not in seen:
                    seen.add(down)
                    cells.append((down, tuple(map(sub, nu, alpha))))
    return [(drop, _trusted(nu)) for drop, nu in
            sorted(cells, key=lambda cell: (sum(cell[0]), cell[0]))]


def _freudenthal(rs: RootSystem, lam: Weight):
    """(drop, nu, multiplicity) per dominant nu below lam, in the order of
    :func:`_dominant_below`, by Freudenthal's recursion.

    Cells are filled top-down (descending height).  For each positive root
    the string sum S(x) = sum_j m(x + j*alpha) * (x + j*alpha, alpha) is
    memoised along the whole root line, so every support point is visited
    only once per root.
    """
    roots = _root_data(rs)
    lam_rho = [c + 1 for c in lam]
    lam_rho_sq = _form_numerator(rs, lam_rho, lam_rho)
    suffix: list[dict] = [{} for _ in roots]
    below = _dominant_below(rs, lam)
    table = {lam: 1}  # the highest weight itself, first below lam
    yield (*below[0], 1)
    for drop, nu in below[1:]:
        total = 0
        for memo, (alpha, row, half, _) in zip(suffix, roots):
            x = tuple(nu)
            pair = sum(r * c for r, c in zip(row, nu))
            chain = []
            while x not in memo:
                up = tuple(c + a for c, a in zip(x, alpha))
                m_up = table.get(tuple(weyl._dominant_walk(rs, list(up))), 0)
                if m_up == 0:
                    memo[x] = 0  # strings through the support are unbroken
                    break
                pair += 2
                chain.append((x, m_up * half * pair))
                x = up
            value = memo[x]
            for y, term in reversed(chain):
                value += term
                memo[y] = value
            total += value
        nu_rho = [c + 1 for c in nu]
        denom = lam_rho_sq - _form_numerator(rs, nu_rho, nu_rho)
        m_nu, rem = divmod(2 * total, denom)
        assert rem == 0 and m_nu > 0, (lam, nu)
        table[nu] = m_nu
        yield drop, nu, m_nu


@lru_cache(maxsize=4096)
def _orbit(rs: RootSystem, nu: Weight) -> tuple:
    """(weight, drop) for every weight of W.nu, nu dominant, with drop =
    rc(nu - weight): one :func:`weyl._descend`, shared by every character and
    product plan that holds nu."""
    return tuple((_trusted(x), d) for x, d, _ in weyl._descend(rs, nu))


@lru_cache(maxsize=4096)
def _character(rs: RootSystem, lam: Weight) -> tuple:
    """The character of V_lam from one walk below lam and the orbit of each
    dominant weight: (weight, mult) pairs sorted by weight, the columns of drop =
    rc(lam - weight), one per coordinate, then the mults, and each coordinate's least."""
    pairs, cells = [], []
    for drop, nu, m in _freudenthal(rs, lam):
        for x, d in _orbit(rs, nu):
            pairs.append((x, m))
            cells.append((*map(add, drop, d), m))
    return tuple(sorted(pairs)), tuple(zip(*cells)), tuple(map(min, zip(*(x for x, _ in pairs))))


def weight_multiplicities(rs: RootSystem, lam, *, cap: int = DEFAULT_CAP) -> dict:
    """Formal character of the module with highest weight ``lam``.

    Returns {weight: multiplicity} over the full (Weyl-symmetric) support.
    """
    lam = _as_weight(rs, lam, dominant=True)
    _guard_dim(rs, lam, cap)
    return dict(_character(rs, lam)[0])


def _fold(rs: RootSystem, top: Weight, lower: Weight):
    """(x, m) per weight nu' of V_lower: x = top + nu' + rho walked into the dominant chamber,
    m its multiplicity signed by the walk's parity (Racah-Speiser/Klimyk).  A point on a wall
    is dropped; singularity is W-invariant, so only a point with a negative coordinate is walked."""
    top_rho = [c + 1 for c in top]
    for nu_prime, m in _character(rs, lower)[0]:
        x = tuple(map(add, top_rho, nu_prime))
        low = min(x)
        if low < 0:
            letters: list[int] = []
            x = tuple(weyl._dominant_walk(rs, list(x), letters))
            low = min(x)
            if len(letters) % 2:
                m = -m
        if low:  # else on a wall: contributes 0
            yield x, m


def tensor_decompose(rs: RootSystem, lam, mu, *, cap: int = DEFAULT_CAP) -> dict:
    """Decomposition multiplicities {nu: (V_lam ply V_mu : V_nu)}: the signed
    reflections of :func:`_fold` over the weights of the smaller factor, summed."""
    lam = _as_weight(rs, lam, dominant=True)
    mu = _as_weight(rs, mu, dominant=True)
    _guard(rs, lam, mu, cap)
    if _dim(rs, mu) > _dim(rs, lam):
        lam, mu = mu, lam  # the rule sums over the smaller character
    pairs, _, lows = _character(rs, mu)
    if min(map(add, lam, lows)) >= 0:  # all lam + nu' dominant: the pairs, shifted
        out = {_trusted(map(add, lam, nu)): m for nu, m in pairs}
    else:
        shifted: dict = {}  # lam + w(nu') + rho, dominant, -> signed sum
        for x, m in _fold(rs, lam, mu):
            shifted[x] = shifted.get(x, 0) + m
        out = dict(sorted((_trusted(c - 1 for c in x), v) for x, v in shifted.items() if v))
        if any(v < 0 for v in out.values()):
            raise InternalInconsistencyError(
                f"negative tensor multiplicity for {lam} x {mu} on {rs.spec}")
    _check_mass(rs, lam, mu, sum(v * _dim(rs, nu) for nu, v in out.items()))
    return out


@lru_cache(maxsize=16384)
def _flat_orbit(rs: RootSystem, nu: Weight, strides: tuple) -> tuple:
    """drop . ``strides`` for each weight of :func:`_orbit`: flat offsets from the orbit's head."""
    return tuple(sum(map(mul, d, strides)) for _, d in _orbit(rs, nu))


@lru_cache(maxsize=4096)
def _product_plan(rs: RootSystem, top: Weight) -> tuple:
    """Flat layout of a character product with highest weight ``top``: box
    strides and size; the dominant nu below top; the flat index of every cell
    of every W.nu in one tuple (its head plus :func:`_flat_orbit`), beside the
    index (in that tuple) of its orbit's head; and one signed run of read-off
    cells nu + rho - w(rho) and eps(w), with the bounds of each nu's run, for
    the w(rho) that :func:`weyl._descend` lists under the drops of top."""
    below = _dominant_below(rs, top)
    shape = [max(axis) + 1 for axis in zip(*(d for _, d in _orbit(rs, top)))]  # to w0(top)
    strides = tuple(prod(shape[i + 1:]) for i in range(rs.rank))
    floor = tuple(num // rs.inv_cartan_den for num in _root_numerator(rs, top))  # root coords
    terms = [(d, sum(map(mul, d, strides)), eps) for _, d, eps in weyl._descend(rs, rs.rho, floor)]
    reach = tuple(map(max, zip(*(d for d, _, _ in terms))))  # the largest rho-drop per coordinate
    _, shifts, every_eps = zip(*terms)
    cells, heads, run, signs, ends = [], [], [], [], [0]
    for drop, nu in below:
        at, offsets = sum(map(mul, drop, strides)), _flat_orbit(rs, nu, strides)
        heads += repeat(len(cells), len(offsets))
        cells += map(at.__add__, offsets)
        if all(map(le, reach, drop)):  # every w(rho) of the plan lies under nu
            run += map(at.__sub__, shifts)
            signs += every_eps
        else:
            for d, shift, eps in terms:
                if all(map(le, d, drop)):
                    run.append(at - shift)
                    signs.append(eps)
        ends.append(len(run))
    return (strides, prod(shape), tuple(nu for _, nu in below), tuple(cells),
            tuple(heads), tuple(run), tuple(signs), tuple(ends))


@lru_cache(maxsize=4096)
def _packed(rs: RootSystem, lam: Weight, strides: tuple, limb: str) -> int:
    """V_lam's character as one integer: each mult a ``limb`` cell at flat index drop . ``strides``,
    up to the largest drop, packed as the little-endian ``struct`` format ``<{cells}{limb}`` (B, H,
    I, Q of 1, 2, 4, 8 bytes) on every host: sum m * 2**(8 * limb size * flat)."""
    *columns, mults = _character(rs, lam)[1]
    cells = [0] * (sum(map(mul, map(max, columns), strides)) + 1)
    flat = repeat(0)  # drop . strides, summed one column of drops at a time
    for column, stride in zip(columns, strides):
        flat = map(add, flat, map(mul, column, repeat(stride)))
    any(map(cells.__setitem__, flat, mults))  # drains the map; each call gives None
    return int.from_bytes(pack(f"<{len(cells)}{limb}", *cells), "little")


def tensor_oracle(rs: RootSystem, lam, mu, *, cap: int = DEFAULT_CAP) -> dict:
    """Independent tensor decomposition by the Weyl character formula.

    One integer multiply convolves the two characters (Kronecker
    substitution: each cell is a limb at its flat index in the product box,
    as wide as the product of the two characters' masses needs); the product
    is read back in the little-endian ``struct`` format ``<{cells}{limb}`` on
    every host.  The product must be Weyl-invariant, and N_nu = sum_w eps(w)
    mult(nu + rho - w(rho)) must be >= 0 at every dominant nu, else an
    inconsistency error.  Besides the dimension product, ``cap`` bounds the
    cells of the product box, which is refused before it is allocated.  Each
    factor's integer comes from :func:`_packed`; the invariance check and the
    read-off are C-level passes over the cached flat layout of
    :func:`_product_plan`.
    """
    lam = _as_weight(rs, lam, dominant=True)
    mu = _as_weight(rs, mu, dominant=True)
    _guard(rs, lam, mu, cap)
    strides, cells_in_box, nus, orbit_cells, heads, run, signs, ends = \
        _product_plan(rs, _trusted(map(add, lam, mu)))
    if cells_in_box > cap:
        raise DimensionCapError(f"product box of {cells_in_box} cells exceeds cap {cap}")
    largest = prod(sum(_character(rs, wt)[1][-1]) for wt in (lam, mu))  # bounds every cell
    limb = next((f for f in "BHIQ" if largest >> 8 * calcsize("<" + f) == 0), None)
    if limb is None:
        raise DimensionCapError(f"dimension product {largest} overflows a 64-bit cell")
    product = _packed(rs, lam, strides, limb) * _packed(rs, mu, strides, limb)
    form = f"<{cells_in_box}{limb}"
    out = list(unpack(form, product.to_bytes(calcsize(form), "little")))  # a list indexes faster
    # Weyl-invariant iff every orbit below the top is constant and together
    # they hold every nonzero cell of the box.
    values = list(map(out.__getitem__, orbit_cells))
    if (list(map(values.__getitem__, heads)) != values
            or len(values) - values.count(0) != len(out) - out.count(0)):
        raise InternalInconsistencyError(
            f"character product {lam} x {mu} on {rs.spec} is not Weyl-invariant")
    partial = list(accumulate(map(mul, map(out.__getitem__, run), signs), initial=0))
    read = list(map(sub, map(partial.__getitem__, ends[1:]), map(partial.__getitem__, ends)))
    if min(read) < 0:
        n_nu, nu = next((n, nu) for n, nu in zip(read, nus) if n < 0)
        raise InternalInconsistencyError(
            f"read-off multiplicity {n_nu} < 0 for {nu} in {lam} x {mu} on {rs.spec}")
    return dict(sorted(zip(compress(nus, read), compress(read, read))))

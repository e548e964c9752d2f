"""Characters of finite-dimensional highest-weight modules.

Weight multiplicities via Freudenthal's recursion, exact Weyl dimensions,
and tensor-product decomposition by the signed-reflection (Racah) rule.
``tensor_oracle`` recomputes the decomposition along an independent path —
multiply the two characters as lattice polynomials, then strip highest
weights greedily — and is used to cross-check the fast path.

All arithmetic is in exact integers: the form scaled by ``RootSystem.form_den``,
character convolution via big-integer packing (never floating point).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from . import weyl
from .errors import DimensionCapError, InternalInconsistencyError
from .rootsys import RootSystem, Weight, _as_weight, _form_numerator, root_coords

#: Default refusal threshold for the product of the two factor dimensions.
DEFAULT_CAP = 10**6


def _guard(rs: RootSystem, lam: Weight, mu: Weight, cap: int) -> None:
    product = _dim(rs, lam) * _dim(rs, mu)
    if product > cap:
        raise DimensionCapError(
            f"dimension product {product} exceeds cap {cap}")


@lru_cache(maxsize=None)
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
    """Per positive root: (fundamental coords, coroot row, scaled (alpha,alpha)/2).

    The last entry is ``rs.form_den * (alpha, alpha) / 2``, always an
    integer; using it keeps the Freudenthal recursion in pure integers.
    """
    out = []
    for alpha, row in zip(rs.positive_roots, rs.coroot_rows):
        half, odd = divmod(_form_numerator(rs, alpha, alpha), 2)
        assert not odd
        out.append((alpha, row, half))
    return tuple(out)


def _dominant_below(rs: RootSystem, lam: Weight):
    """All (drop, nu) with nu dominant and lam - nu a nonnegative root sum.

    ``drop`` is the simple-root coordinate vector of lam - nu.  Every such nu
    is in fact a weight of the module with highest weight lam.
    """
    n = rs.rank
    cartan = rs.cartan
    # The inverse Cartan matrix has positive entries, so drops are bounded
    # componentwise by the root coordinates of lam itself.
    tops = [int(c) for c in root_coords(rs, lam)]
    cells = []
    for drop in itertools.product(*(range(t + 1) for t in tops)):
        nu = tuple(lam[r] - sum(cartan[r][i] * drop[i] for i in range(n))
                   for r in range(n))
        if all(c >= 0 for c in nu):
            cells.append((drop, Weight(nu)))
    cells.sort(key=lambda cell: (sum(cell[0]), cell[0]))
    return cells


@lru_cache(maxsize=None)
def _dominant_mults(rs: RootSystem, lam: Weight) -> dict:
    """Freudenthal table {dominant weight: multiplicity} for highest weight lam.

    Cells are filled top-down (descending height).  For each positive root
    the string sum S(x) = sum_j m(x + j*alpha) * (x + j*alpha, alpha) is
    memoised along the whole root line, so every support point is visited
    only once per root.
    """
    table: dict = {}
    roots = _root_data(rs)
    lam_rho = [c + 1 for c in lam]
    lam_rho_sq = _form_numerator(rs, lam_rho, lam_rho)
    suffix: list[dict] = [{} for _ in roots]
    for drop, nu in _dominant_below(rs, lam):
        if not any(drop):
            table[nu] = 1  # the highest weight itself
            continue
        total = 0
        for memo, (alpha, row, half) in zip(suffix, roots):
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
    return table


@lru_cache(maxsize=None)
def _char_items(rs: RootSystem, lam: Weight):
    """Full weight support of the character, as sorted (weight, mult) pairs."""
    items = []
    for nu, m in _dominant_mults(rs, lam).items():
        for x in weyl.orbit(rs, nu):
            items.append((x, m))
    items.sort()
    return tuple(items)


def weight_multiplicities(rs: RootSystem, lam, *, cap: int = DEFAULT_CAP) -> dict:
    """Formal character of the module with highest weight ``lam``.

    Returns {weight: multiplicity} over the full (Weyl-symmetric) support.
    """
    lam = _as_weight(rs, lam, dominant=True)
    if _dim(rs, lam) > cap:
        raise DimensionCapError(f"dimension {_dim(rs, lam)} exceeds cap {cap}")
    return dict(_char_items(rs, lam))


def tensor_decompose(rs: RootSystem, lam, mu, *, cap: int = DEFAULT_CAP) -> dict:
    """Decomposition multiplicities {nu: (V_lam ply V_mu : V_nu)}.

    Signed-reflection rule: for every weight nu' of the smaller factor,
    dot-reflect lam + nu' into the dominant chamber, with the sign of the
    walk's length; points on a chamber wall contribute nothing.  Singularity
    is Weyl-invariant, so a walk that touches a wall also ends on one.
    """
    lam = _as_weight(rs, lam, dominant=True)
    mu = _as_weight(rs, mu, dominant=True)
    _guard(rs, lam, mu, cap)
    if _dim(rs, mu) > _dim(rs, lam):
        lam, mu = mu, lam  # the rule sums over the smaller character
    out: dict = {}
    for nu_prime, m in _char_items(rs, mu):
        letters: list[int] = []
        coords = weyl._dominant_walk(
            rs, [a + b + 1 for a, b in zip(lam, nu_prime)], letters)
        if 0 in coords:
            continue  # on a wall: contributes 0
        key = Weight(c - 1 for c in coords)
        new = out.get(key, 0) + (-m if len(letters) % 2 else m)
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    if any(v <= 0 for v in out.values()):
        raise InternalInconsistencyError(
            f"negative tensor multiplicity for {lam} x {mu}")
    mass = sum(v * _dim(rs, nu) for nu, v in out.items())
    if mass != _dim(rs, lam) * _dim(rs, mu):
        raise InternalInconsistencyError(
            f"tensor mass mismatch for {lam} x {mu}")
    return dict(sorted(out.items()))


@lru_cache(maxsize=None)
def _char_drop_array(rs: RootSystem, lam: Weight) -> np.ndarray:
    """Character on the root-drop grid: cell c holds dim V_lam[lam - c.alpha]."""
    # The largest drop is to the lowest weight w0(lam) = -bar(lam).
    span = lam + weyl.bar_involution(rs, lam)
    shape = tuple(int(c) + 1 for c in root_coords(rs, span))
    arr = np.zeros(shape, dtype=np.int64)
    for nu, m in _char_items(rs, lam):
        drop = root_coords(rs, lam - nu)
        arr[tuple(int(c) for c in drop)] = m
    arr.setflags(write=False)
    return arr


def _convolve_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer convolution by packing each array into one big integer.

    Cells become 64-bit limbs positioned by their flat index in the output
    box; one big-int multiply then performs the whole convolution without
    overflow as long as every output coefficient fits in a limb.
    """
    out_shape = tuple(x + y - 1 for x, y in zip(a.shape, b.shape))
    total = int(np.prod(out_shape))

    def pack(arr: np.ndarray) -> int:
        grid = np.indices(arr.shape).reshape(arr.ndim, -1)
        flat = np.ravel_multi_index(grid, out_shape)
        buf = np.zeros(total, dtype="<u8")
        buf[flat] = arr.ravel()
        return int.from_bytes(buf.tobytes(), "little")

    product = pack(a) * pack(b)
    buf = np.frombuffer(product.to_bytes(8 * total, "little"), dtype="<u8")
    return buf.astype(np.int64).reshape(out_shape)


def tensor_oracle(rs: RootSystem, lam, mu, *, cap: int = DEFAULT_CAP) -> dict:
    """Independent tensor decomposition: convolve characters, strip greedily.

    Must agree with :func:`tensor_decompose`; a negative intermediate
    multiplicity or a nonzero residue raises an inconsistency error.
    """
    lam = _as_weight(rs, lam, dominant=True)
    mu = _as_weight(rs, mu, dominant=True)
    _guard(rs, lam, mu, cap)
    arr = _convolve_exact(_char_drop_array(rs, lam), _char_drop_array(rs, mu))
    top = lam + mu
    n = rs.rank
    # Locate the dominant cells of the output box and order them by total
    # drop, i.e. by descending height, so highest weights are read first.
    grid = np.indices(arr.shape).reshape(n, -1)
    nu_grid = np.asarray(top, dtype=np.int64)[:, None] \
        - np.asarray(rs.cartan, dtype=np.int64) @ grid
    dominant = np.nonzero((nu_grid >= 0).all(axis=0))[0]
    order = dominant[np.argsort(grid[:, dominant].sum(axis=0), kind="stable")]

    flat = arr.reshape(-1)
    result: dict = {}
    for cell in order:
        v = int(flat[cell])
        if v == 0:
            continue
        nu = Weight(int(c) for c in nu_grid[:, cell])
        if v < 0:
            raise InternalInconsistencyError(
                f"greedy strip drove the multiplicity of {nu} negative")
        comp = _char_drop_array(rs, nu)
        drop = grid[:, cell]
        window = tuple(slice(int(c), int(c) + s) for c, s in zip(drop, comp.shape))
        arr[window] -= v * comp
        result[nu] = v
    if arr.any():
        raise InternalInconsistencyError(
            f"nonzero residue after stripping {lam} x {mu}")
    return dict(sorted(result.items()))

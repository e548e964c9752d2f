"""Self-contained cross-check oracles for the test suite.

Nothing in here imports the library under test.  The reflection groups are
realised as integer matrices generated from a private copy of the Cartan
tables, linear algebra is Gaussian elimination over ``Fraction``, and weight
multiplicities come from dividing the alternating orbit sum of ``lam + rho``
by the Weyl denominator -- a different algorithm on different data
structures, so agreement with the library is a real check.  Tensor products
come from those characters and the group's matrices, and so does the
pair-by-pair check of the weight-geometry lemma.  The two dense box filters
are the references for the library's walks over dominant weights.  The
lattice ``pQ^vee``, the alcove's special automorphisms and an alcove walk
that crosses one wall per step are read off the Cartan matrix and the
highest root at the end.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import factorial


def cartan_matrix(series: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Bourbaki Cartan matrix; entry [i][j] pairs the j-th simple root
    against the i-th simple coroot, so columns are simple roots written in
    fundamental-weight coordinates."""
    n = rank
    edges = [(i, i + 1) for i in range(n - 1)]
    arrows = {}  # (i, j) -> (a[i][j], a[j][i]) across a multiple edge
    if series == "B":
        arrows[(n - 2, n - 1)] = (-1, -2)  # last node short
    elif series == "C":
        arrows[(n - 2, n - 1)] = (-2, -1)  # last node long
    elif series == "D":
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    elif series == "E":
        edges = [(0, 2), (2, 3), (1, 3)] + [(i, i + 1) for i in range(3, n - 1)]
    elif series == "F":
        arrows[(1, 2)] = (-1, -2)  # nodes 1,2 long, 3,4 short
    elif series == "G":
        arrows[(0, 1)] = (-3, -1)  # first node short
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = -1
    for (i, j), (aij, aji) in arrows.items():
        rows[i][j], rows[j][i] = aij, aji
    return tuple(tuple(r) for r in rows)


def weyl_order(series: str, rank: int) -> int:
    n = rank
    if series == "A":
        return factorial(n + 1)
    if series in ("B", "C"):
        return 2 ** n * factorial(n)
    if series == "D":
        return 2 ** (n - 1) * factorial(n)
    if series == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[n]
    return {"F": 1152, "G": 12}[series]


def positive_root_count(series: str, rank: int) -> int:
    n = rank
    if series == "A":
        return n * (n + 1) // 2
    if series in ("B", "C"):
        return n * n
    if series == "D":
        return n * (n - 1)
    if series == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    return {"F": 24, "G": 6}[series]


def _mat_mul(a, b):
    n = len(b)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(len(a)))


def _mat_vec(m, v):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in m)


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def reflection_matrices(cartan):
    """The simple reflections acting on fundamental-weight coordinates:
    s_i subtracts x_i times the i-th simple root (the i-th Cartan column)."""
    n = len(cartan)
    out = []
    for i in range(n):
        m = [[int(j == k) for k in range(n)] for j in range(n)]
        for j in range(n):
            m[j][i] -= cartan[j][i]
        out.append(tuple(tuple(row) for row in m))
    return out


@functools.lru_cache(maxsize=None)
def weyl_group(cartan) -> dict:
    """Breadth-first closure of the simple reflections: matrix -> length.

    The BFS depth in the generators is exactly the Coxeter length, since
    every generator is an involution and lengths change by one per step.
    """
    gens = reflection_matrices(cartan)
    identity = _identity(len(cartan))
    lengths = {identity: 0}
    frontier = [identity]
    while frontier:
        step = []
        for m in frontier:
            for s in gens:
                prod = _mat_mul(m, s)
                if prod not in lengths:
                    lengths[prod] = lengths[m] + 1
                    step.append(prod)
        frontier = step
    return lengths


def word_matrix(cartan, word):
    """The matrix of ``s_{word[0]} ... s_{word[-1]}`` (the last letter acts first)."""
    gens = reflection_matrices(cartan)
    return functools.reduce(_mat_mul, (gens[i] for i in word), _identity(len(cartan)))


def root_coordinates(cartan, vec):
    """Solve cartan @ x = vec exactly (the columns being the simple roots)."""
    n = len(cartan)
    aug = [[Fraction(cartan[i][j]) for j in range(n)] + [Fraction(vec[i])]
           for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(aug[i][n] for i in range(n))


def symmetrizer(cartan) -> list[Fraction]:
    """d_i = (alpha_i, alpha_i)/2: a breadth-first walk of the Dynkin diagram
    solving d_i a_ij = d_j a_ji from d_0 = 1, normalised so long roots have 1."""
    n = len(cartan)
    d = [Fraction(1)] + [None] * (n - 1)
    queue = [0]
    for i in queue:  # grows while walked
        for j in range(n):
            if cartan[i][j] and d[j] is None:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                queue.append(j)
    return [x / max(d) for x in d]


def positive_roots(cartan) -> list[tuple[int, ...]]:
    """Positive roots in simple-root coordinates, sorted by (height, coords),
    by root strings: for a positive root beta other than alpha_i, the
    alpha_i-string beta - r alpha_i, ..., beta + q alpha_i has
    r - q = <beta, alpha_i^vee>, so beta + alpha_i is a root iff q > 0.  Every
    root below beta is known when beta is reached, height by height."""
    n = len(cartan)
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots, level = set(unit), unit
    while level:
        up = set()
        for beta in level:
            for i in range(n):
                if beta == unit[i]:
                    continue
                r = 0
                while tuple(b - (r + 1) * u for b, u in zip(beta, unit[i])) in roots:
                    r += 1
                if r - sum(cartan[i][j] * beta[j] for j in range(n)) > 0:
                    up.add(tuple(b + u for b, u in zip(beta, unit[i])))
        roots |= up
        level = sorted(up)
    return sorted(roots, key=lambda beta: (sum(beta), beta))


def coroot(cartan, d, rc) -> tuple[int, ...]:
    """Coordinates of alpha^vee in the simple coroots, for alpha with root
    coordinates ``rc``: c_j = rc_j d_j / d_alpha, with d_alpha = (alpha, alpha)/2
    and (alpha_j, alpha_k) = d_j a_jk."""
    n = len(cartan)
    d_alpha = sum(rc[j] * d[j] * cartan[j][k] * rc[k] for j in range(n) for k in range(n)) / 2
    return _as_int_vector([rc[j] * d[j] / d_alpha for j in range(n)])


def form_on_fundamental_weights(cartan, d) -> tuple[tuple[Fraction, ...], ...]:
    """(omega_i, omega_j) = x_j d_j, with x the root coordinates of omega_i,
    because (alpha_k, omega_j) = d_k delta_kj."""
    n = len(cartan)
    return tuple(tuple(x * d[j] for j, x in enumerate(
        root_coordinates(cartan, [int(i == k) for k in range(n)]))) for i in range(n))


def _as_int_vector(fractions_vec):
    assert all(f.denominator == 1 for f in fractions_vec), fractions_vec
    return tuple(int(f) for f in fractions_vec)


def character_oracle(cartan, lam) -> dict:
    """Weight multiplicities of the irreducible with highest weight ``lam``.

    Divides the alternating orbit sum of ``lam + rho`` by the denominator:
    writing mu = lam - (drop in simple roots), the coefficient recursion

        m(mu) = [mu + rho in the signed orbit of lam + rho]
                - sum over w != e of sign(w) * m(mu + rho - w(rho))

    runs top-down over the drop box, because rho - w(rho) is a nonnegative
    sum of simple roots for every nonidentity w.  Everything outside the box
    from lam down to the lowest weight has multiplicity zero.
    """
    n = len(cartan)
    lam = tuple(lam)
    assert all(isinstance(c, int) and c >= 0 for c in lam)
    group = weyl_group(cartan)
    rho = (1,) * n
    lam_rho = tuple(c + 1 for c in lam)

    orbit_sign = {}
    shifts = []
    for mat, length in group.items():
        sign = -1 if length % 2 else 1
        orbit_sign[_mat_vec(mat, lam_rho)] = sign
        if length:
            moved = _mat_vec(mat, rho)
            drop = _as_int_vector(root_coordinates(
                cartan, tuple(1 - c for c in moved)))
            assert min(drop) >= 0 and sum(drop) > 0
            shifts.append((sign, drop))
    assert len(orbit_sign) == len(group)  # lam + rho is regular

    lowest = _mat_vec(max(group, key=group.get), lam)
    top = _as_int_vector(root_coordinates(
        cartan, tuple(a - b for a, b in zip(lam, lowest))))
    assert min(top) >= 0

    columns = [tuple(cartan[i][j] for i in range(n)) for j in range(n)]

    def weight_at(drop):
        return tuple(lam[i] - sum(columns[j][i] * drop[j] for j in range(n))
                     for i in range(n))

    mult = {}
    cells = sorted(itertools.product(*(range(t + 1) for t in top)),
                   key=lambda d: (sum(d), d))
    for drop in cells:
        mu_rho = tuple(w + 1 for w in weight_at(drop))
        value = orbit_sign.get(mu_rho, 0)
        for sign, shift in shifts:
            above = tuple(a - b for a, b in zip(drop, shift))
            if min(above) >= 0:
                value -= sign * mult.get(above, 0)
        if value:
            mult[drop] = value

    out = {}
    for drop, m in mult.items():
        assert m > 0, (drop, m)
        out[weight_at(drop)] = m
    assert out[lam] == 1
    return out


def dimension_oracle(cartan, lam) -> int:
    return sum(character_oracle(cartan, lam).values())


@functools.lru_cache(maxsize=None)
def _support(cartan, lam) -> tuple:
    """The weights of the irreducible with highest weight ``lam``, cached for the sweeps."""
    return tuple(character_oracle(cartan, lam))


def verify_oracle(cartan, lam, mu, translation, word, moduli) -> bool:
    """Reference for the weight-geometry lemma (Jantzen, RAG II.7), pair by pair.

    ``g`` is the translation by ``translation`` after the finite element
    ``s_{word[0]} ... s_{word[-1]}``, spelled any way.  For every group matrix
    ``w`` and weight ``nu`` of V_tau (tau the dominant point of the orbit of
    ``lam - mu``), ``beta = g.mu + nu - w.lam`` gives a solution
    ``(t_beta, w) . lam = g.mu + nu`` when root coordinate ``i`` of ``beta`` is a
    multiple of ``moduli[i]``.  True iff there is a solution and each one is
    ``g`` itself with ``nu`` in the orbit of tau.
    """
    g_mat = word_matrix(cartan, word)

    def dot(mat, wt):
        return tuple(c - 1 for c in _mat_vec(mat, tuple(c + 1 for c in wt)))

    start = tuple(a + b for a, b in zip(dot(g_mat, mu), translation))
    orbit = {_mat_vec(mat, tuple(a - b for a, b in zip(lam, mu))) for mat in weyl_group(cartan)}
    tau = next(x for x in orbit if min(x) >= 0)

    def residue(wt):  # beta is in the lattice iff g.mu + nu and w.lam have equal residues
        return tuple(c % m for c, m in zip(root_coordinates(cartan, wt), moduli))

    ends = {nu: residue(tuple(a + b for a, b in zip(start, nu)))
            for nu in _support(cartan, tau)}
    solutions = []
    for mat in weyl_group(cartan):
        w_lam = dot(mat, lam)
        here = residue(w_lam)
        for nu, end in ends.items():
            if end == here:
                beta = tuple(a + b - c for a, b, c in zip(start, nu, w_lam))
                solutions.append((beta, mat, nu))
    return bool(solutions) and all(
        beta == tuple(translation) and mat == g_mat and nu in orbit
        for beta, mat, nu in solutions)


def tensor_reference(cartan, lam, mu) -> dict:
    """Multiplicities {nu: N} of V_lam (x) V_mu by Brauer's formula over the
    whole group: N_nu = sum over the weights x of V_mu and the w in W with
    w(lam + x + rho) = nu + rho dominant of sign(w) * mult(x).  A point on a
    wall reaches the chamber only on the wall, where nu has a coordinate -1,
    so it adds nothing."""
    lam = tuple(lam)
    out = {}
    for x, mult in character_oracle(cartan, mu).items():
        point = tuple(a + b + 1 for a, b in zip(lam, x))
        for mat, length in weyl_group(cartan).items():
            nu = tuple(c - 1 for c in _mat_vec(mat, point))
            if min(nu) >= 0:
                out[nu] = out.get(nu, 0) + (-mult if length % 2 else mult)
    assert all(n >= 0 for n in out.values()), out
    return {nu: n for nu, n in sorted(out.items()) if n}


def dominant_below_box(cartan, lam):
    """Reference for the dominant weights below ``lam``: every drop vector up
    to the root coordinates of ``lam`` (the inverse Cartan matrix is
    positive, so these bound the drops of dominant weights), kept when its
    weight is dominant.  Returns (drop, nu) pairs sorted by (height, drop)."""
    n = len(cartan)
    tops = [int(c) for c in root_coordinates(cartan, lam)]
    cells = []
    for drop in itertools.product(*(range(t + 1) for t in tops)):
        nu = tuple(lam[r] - sum(cartan[r][i] * drop[i] for i in range(n))
                   for r in range(n))
        if all(c >= 0 for c in nu):
            cells.append((drop, nu))
    cells.sort(key=lambda cell: (sum(cell[0]), cell[0]))
    return cells


def dominant_box(marks, height):
    """Reference for the dominant weights of bounded height: the tuples c >= 0
    with sum(a_i * (c_i + 1)) <= height over the dual marks a_i, found by
    filtering the box of all c_i <= room // a_i.  Lexicographic order."""
    room = height - sum(marks)
    sizes = [max(room // m, -1) + 1 for m in marks]
    return [coords for coords in itertools.product(*map(range, sizes))
            if sum(m * c for m, c in zip(marks, coords)) <= room]


def simple_coroots(cartan) -> list[tuple[int, ...]]:
    """``alpha_i^vee = alpha_i / d_i`` in fundamental coordinates: column ``i`` of the
    Cartan matrix over ``d_i = (alpha_i, alpha_i) / 2``, 1 for a long root."""
    n = len(cartan)
    return [_as_int_vector([cartan[j][i] / d for j in range(n)])
            for i, d in enumerate(symmetrizer(cartan))]


def in_p_coroot_lattice(cartan, p, beta) -> bool:
    """Whether ``beta`` (fundamental coordinates) lies in ``p Q^vee``, the translations
    of the group the alcove walk generates: ``alpha_i^vee = alpha_i / d_i``, so root
    coordinate ``i`` must be a multiple of ``p / d_i``."""
    return all((c * d / p).denominator == 1
               for c, d in zip(root_coordinates(cartan, beta), symmetrizer(cartan)))


def _longest(cartan, nodes):
    """The longest element of the subgroup generated by ``s_i``, ``i`` in ``nodes``: it
    sends ``x`` with ``x_i = -1`` at every node to the chamber where those ``x_i`` are
    positive, so it is the product of the reflections that walk ``x`` there."""
    gens, n = reflection_matrices(cartan), len(cartan)
    x, longest = [-(i in nodes) for i in range(n)], _identity(n)
    while (i := next((i for i in nodes if x[i] < 0), None)) is not None:
        x, longest = _mat_vec(gens[i], x), _mat_mul(gens[i], longest)
    return longest


@functools.lru_cache(maxsize=None)
def alcove_automorphisms(cartan) -> tuple:
    """The nontrivial special automorphisms of the fundamental alcove (Bourbaki,
    Lie VI 2.3), as pairs ``(i, w)``: ``x = lam + rho`` goes to ``w(x) + p omega_i``.
    One per node ``i`` whose mark (root coordinate ``i`` of the highest root) is 1,
    with ``w`` the longest element of the stabiliser of ``omega_i`` (generated by
    the ``s_j``, ``j != i``) after the longest element ``w_0``."""
    theta, n = positive_roots(cartan)[-1], len(cartan)
    w0 = _longest(cartan, range(n))
    return tuple((i, _mat_mul(_longest(cartan, [j for j in range(n) if j != i]), w0))
                 for i in range(n) if theta[i] == 1)


def apply_automorphism(omega, p, lam) -> tuple:
    """``omega = (i, w)`` of :func:`alcove_automorphisms` at ``p`` on the weight ``lam``."""
    i, w = omega
    return tuple(c + p * (j == i) - 1 for j, c in enumerate(_mat_vec(w, [c + 1 for c in lam])))


def alcove_walk(cartan, p, lam) -> tuple:
    """Reference for the alcove walk at level ``p``, with no reduction first: reflect
    ``x = lam + rho`` in the first simple wall it lies below, else in the wall
    ``<x, theta^vee> = p`` while it lies above, keeping ``g(y) = M y + t`` with
    ``g(x) = lam + rho``.  Returns ``(rep, M, t, regular, inside)``: ``rep = x - rho``,
    the dot action's finite part ``M`` (a matrix) and translation ``t``, whether no
    ``<x, alpha^vee>`` lies in ``pZ``, and whether ``rep`` is in the open alcove."""
    n, roots = len(cartan), positive_roots(cartan)
    coroots = [coroot(cartan, symmetrizer(cartan), rc) for rc in roots]
    theta, gens = _mat_vec(cartan, roots[-1]), reflection_matrices(cartan)  # theta^vee = theta
    s_theta = tuple(tuple(int(i == j) - theta[i] * coroots[-1][j] for j in range(n))
                    for i in range(n))
    x, m, t = tuple(c + 1 for c in lam), _identity(n), (0,) * n
    while True:
        i = next((i for i in range(n) if x[i] < 0), None)
        height = sum(c * v for c, v in zip(coroots[-1], x))
        if i is not None:
            x, m = _mat_vec(gens[i], x), _mat_mul(m, gens[i])
        elif height > p:  # x -> s_theta(x) + p theta, so g(y) -> g(s_theta(y) + p theta)
            x = tuple(c - (height - p) * h for c, h in zip(x, theta))
            t = tuple(a + p * b for a, b in zip(t, _mat_vec(m, theta)))
            m = _mat_mul(m, s_theta)
        else:
            break
    regular = all(sum(c * v for c, v in zip(row, x)) % p for row in coroots)
    return tuple(c - 1 for c in x), m, t, regular, min(x) > 0 and height < p

from __future__ import annotations

import array
import functools
import itertools
import random
import sys
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from afftrans import finchar, weyl
from afftrans.errors import DimensionCapError, DomainError, InternalInconsistencyError
from afftrans.rootsys import Weight, root_coords, root_system

A1 = root_system("A1")
A2 = root_system("A2")
B2 = root_system("B2")
G2 = root_system("G2")


def _as_plain(parts):
    return {tuple(k): v for k, v in parts.items()}


# ---------------------------------------------------------------------------
# weight multiplicities


def test_multiplicities_a1_three_dim():
    assert finchar.weight_multiplicities(A1, Weight([2])) == {
        Weight([2]): 1, Weight([0]): 1, Weight([-2]): 1}


def test_multiplicities_a2_adjoint():
    ch = finchar.weight_multiplicities(A2, Weight([1, 1]))
    assert ch[Weight([0, 0])] == 2
    assert sum(ch.values()) == 8
    assert ch[Weight([1, 1])] == 1


@pytest.mark.parametrize("rs", [A1, A2, B2, G2])
def test_multiplicities_trivial_module(rs):
    zero = Weight.zero(rs.rank)
    assert finchar.weight_multiplicities(rs, zero) == {zero: 1}


def test_multiplicities_rejects_bad_input():
    with pytest.raises(DomainError):
        finchar.weight_multiplicities(A1, Weight([-1]))
    with pytest.raises(DomainError):
        finchar.weight_multiplicities(A1, Weight([Fraction(1, 2)]))
    with pytest.raises(DomainError):
        finchar.weight_multiplicities(A2, Weight([1]))  # wrong rank
    with pytest.raises(TypeError):
        finchar.weight_multiplicities(A1, [1.5])


@pytest.mark.parametrize("rs,lam", [
    (A1, [7]), (A2, [2, 1]), (A2, [3, 0]), (B2, [1, 1]), (B2, [0, 3]), (G2, [1, 1]),
])
def test_multiplicities_match_character_oracle(rs, lam):
    got = _as_plain(finchar.weight_multiplicities(rs, Weight(lam)))
    assert got == oracles.character_oracle(rs.cartan, tuple(lam))


@pytest.mark.parametrize("rs,lam", [(A2, [2, 1]), (B2, [1, 1]), (G2, [0, 1])])
def test_multiplicities_are_weyl_symmetric(rs, lam):
    ch = finchar.weight_multiplicities(rs, Weight(lam))
    for nu, m in ch.items():
        for moved in weyl.orbit(rs, nu):
            assert ch[moved] == m


@pytest.mark.parametrize("rs,lam", [(A2, [2, 1]), (B2, [2, 0]), (G2, [1, 0])])
def test_support_lies_under_the_highest_weight(rs, lam):
    lam = Weight(lam)
    for nu in finchar.weight_multiplicities(rs, lam):
        drop = root_coords(rs, lam - nu)
        assert all(isinstance(c, int) and c >= 0 for c in drop)


@pytest.mark.parametrize("rs,lam", [(A2, [2, 1]), (B2, [1, 1]), (G2, [1, 0])])
def test_multiplicities_list_weights_in_sorted_order(rs, lam):
    weights = list(finchar.weight_multiplicities(rs, Weight(lam)))
    assert weights == sorted(weights)


def test_multiplicities_dimension_guard():
    with pytest.raises(DimensionCapError):
        finchar.weight_multiplicities(A1, Weight([200]), cap=100)


# ---------------------------------------------------------------------------
# dimensions


def test_dimension_examples():
    for m in range(6):
        assert finchar.dimension(A1, Weight([m])) == m + 1
    assert finchar.dimension(A2, Weight([1, 1])) == 8
    assert finchar.dimension(A2, Weight([1, 0])) == 3


def test_dimension_reference_values():
    assert finchar.dimension(B2, Weight([1, 0])) == 5
    assert finchar.dimension(B2, Weight([0, 1])) == 4
    assert finchar.dimension(B2, Weight([0, 2])) == 10
    assert finchar.dimension(G2, Weight([1, 0])) == 7
    assert finchar.dimension(G2, Weight([0, 1])) == 14
    assert finchar.dimension(root_system("E8"), Weight([0, 0, 0, 0, 0, 0, 0, 1])) == 248


@pytest.mark.parametrize("rs", [A1, A2, B2, G2])
def test_dimension_is_total_mass(rs):
    rng = random.Random(6)
    for _ in range(8):
        lam = Weight(rng.randint(0, 3) for _ in range(rs.rank))
        assert finchar.dimension(rs, lam) == \
            sum(finchar.weight_multiplicities(rs, lam).values())


def test_dimension_rejects_non_dominant():
    with pytest.raises(DomainError):
        finchar.dimension(A2, Weight([0, -2]))


# ---------------------------------------------------------------------------
# tensor decomposition


def test_tensor_a1_clebsch_gordan():
    assert finchar.tensor_decompose(A1, Weight([1]), Weight([1])) == {
        Weight([0]): 1, Weight([2]): 1}


def test_tensor_a2_three_times_dual():
    assert finchar.tensor_decompose(A2, Weight([1, 0]), Weight([0, 1])) == {
        Weight([0, 0]): 1, Weight([1, 1]): 1}


@pytest.mark.parametrize("rs,mu", [(A1, [4]), (A2, [2, 1]), (G2, [1, 1])])
def test_tensor_with_trivial_factor(rs, mu):
    mu = Weight(mu)
    zero = Weight.zero(rs.rank)
    assert finchar.tensor_decompose(rs, zero, mu) == {mu: 1}
    assert finchar.tensor_decompose(rs, mu, zero) == {mu: 1}


def test_tensor_textbook_values():
    # 3 x 3 = 6 + 3bar
    assert finchar.tensor_decompose(A2, Weight([1, 0]), Weight([1, 0])) == {
        Weight([2, 0]): 1, Weight([0, 1]): 1}
    # 8 x 8 = 27 + 10 + 10bar + 8 + 8 + 1
    assert finchar.tensor_decompose(A2, Weight([1, 1]), Weight([1, 1])) == {
        Weight([0, 0]): 1, Weight([1, 1]): 2, Weight([3, 0]): 1,
        Weight([0, 3]): 1, Weight([2, 2]): 1}
    # G2: 7 x 7 = 27 + 14 + 7 + 1
    assert finchar.tensor_decompose(G2, Weight([1, 0]), Weight([1, 0])) == {
        Weight([0, 0]): 1, Weight([1, 0]): 1, Weight([0, 1]): 1, Weight([2, 0]): 1}
    # B2: 5 x 4 = 16 + 4
    assert finchar.tensor_decompose(B2, Weight([1, 0]), Weight([0, 1])) == {
        Weight([1, 1]): 1, Weight([0, 1]): 1}


@pytest.mark.parametrize("rs", [A1, A2, B2, G2])
def test_tensor_mass_and_symmetry(rs):
    rng = random.Random(rs.rank + ord(rs.spec.series))
    top = 2 if rs is G2 else 3  # G2 dimensions outgrow the default cap fast
    for _ in range(10):
        lam = Weight(rng.randint(0, top) for _ in range(rs.rank))
        mu = Weight(rng.randint(0, top) for _ in range(rs.rank))
        parts = finchar.tensor_decompose(rs, lam, mu)
        assert parts == finchar.tensor_decompose(rs, mu, lam)
        assert all(nu.is_dominant and m > 0 for nu, m in parts.items())
        mass = sum(m * finchar.dimension(rs, nu) for nu, m in parts.items())
        assert mass == finchar.dimension(rs, lam) * finchar.dimension(rs, mu)


def test_tensor_rejects_non_dominant():
    with pytest.raises(DomainError):
        finchar.tensor_decompose(A1, Weight([-2]), Weight([2]))


def test_tensor_dimension_guard():
    with pytest.raises(DimensionCapError, match="exceeds cap"):
        finchar.tensor_decompose(A1, Weight([9]), Weight([9]), cap=50)
    # the guard reads the product, not the factors
    finchar.tensor_decompose(A1, Weight([9]), Weight([9]), cap=100)


# ---------------------------------------------------------------------------
# the convolution oracle


def test_oracle_examples():
    assert finchar.tensor_oracle(A1, Weight([2]), Weight([2])) == {
        Weight([0]): 1, Weight([2]): 1, Weight([4]): 1}
    assert finchar.tensor_oracle(A2, Weight([1, 0]), Weight([1, 0])) == {
        Weight([2, 0]): 1, Weight([0, 1]): 1}
    assert finchar.tensor_oracle(A2, Weight.zero(2), Weight.zero(2)) == {
        Weight.zero(2): 1}


@pytest.mark.parametrize("rs", [A1, A2, B2, G2, root_system("A3"),
                                root_system("B3"), root_system("C3"),
                                root_system("D4"), root_system("F4")])
def test_oracle_agrees_with_decompose(rs):
    # the acceptance suite sweeps this exhaustively; here a quick sample,
    # with small coordinates from rank 3 on and, at rank 4, a dimension
    # product of at most 10^4 to keep the characters small
    rng = random.Random(99)
    top = 3 if rs.rank <= 2 else 1
    checked = 0
    while checked < 12:
        lam = Weight(rng.randint(0, top) for _ in range(rs.rank))
        mu = Weight(rng.randint(0, top) for _ in range(rs.rank))
        if rs.rank >= 4 and finchar.dimension(rs, lam) * finchar.dimension(rs, mu) > 10 ** 4:
            continue
        assert finchar.tensor_oracle(rs, lam, mu) == \
            finchar.tensor_decompose(rs, lam, mu)
        checked += 1


REFERENCE_TYPES = ["A1", "A2", "A3", "B2", "C3", "G2"]


@functools.lru_cache(maxsize=None)
def _character(name, lam):
    return oracles.character_oracle(oracles.cartan_matrix(name[0], int(name[1:])), lam)


def _lows(name, lam, mu):
    """The least coordinate of lam + x + rho for each weight x of the smaller
    factor (mu on a tie), from the oracles alone.  tensor_decompose folds
    nothing iff every one is at least 1; a 0 is a point on a wall, a negative
    one is walked to the chamber."""
    if sum(_character(name, mu).values()) > sum(_character(name, lam).values()):
        lam, mu = mu, lam
    return [min(a + b + 1 for a, b in zip(lam, x)) for x in _character(name, mu)]


@functools.lru_cache(maxsize=None)
def _pairs_by_side(name):
    """Pairs of small dominant weights (dimension product at most 2,000) on
    each side of tensor_decompose's fork.  "fold": the signs of the lows are
    all of -1, 0 and 1.  "no fold": every low is positive.  The edges "least 1"
    (no fold) and "least 0" (fold, with a point on a wall and none walked)
    hold the pairs whose least low is exactly that.  A1 has the no-fold side
    alone: the smaller factor's lowest weight -mu is at least -lam."""
    top = {1: 4, 2: 2, 3: 1}[int(name[1:])]
    weights = list(itertools.product(range(top + 1), repeat=int(name[1:])))
    dims = {lam: sum(_character(name, lam).values()) for lam in weights}
    sides = {"fold": [], "no fold": [], "least 1": [], "least 0": []}
    for lam, mu in itertools.product(weights, repeat=2):
        if dims[lam] * dims[mu] <= 2000:
            lows = _lows(name, lam, mu)
            signs = {(low > 0) - (low < 0) for low in lows}
            if signs in ({-1, 0, 1}, {1}):
                sides["fold" if -1 in signs else "no fold"].append((lam, mu))
            if min(lows) in (0, 1):
                sides[f"least {min(lows)}"].append((lam, mu))
    return {side: pairs for side, pairs in sides.items() if pairs}


def _assert_brauer(name, lam, mu):
    rs = root_system(name)
    want = oracles.tensor_reference(rs.cartan, lam, mu)
    assert _as_plain(finchar.tensor_decompose(rs, lam, mu)) == want
    assert _as_plain(finchar.tensor_oracle(rs, lam, mu)) == want


@settings(max_examples=80, deadline=None, database=None)
@given(st.sampled_from([(name, side) for name in REFERENCE_TYPES for side in _pairs_by_side(name)])
       .flatmap(lambda drawn: st.tuples(st.just(drawn[0]),
                                        st.sampled_from(_pairs_by_side(drawn[0])[drawn[1]]))))
def test_decompose_and_oracle_match_the_brauer_reference(case):
    name, (lam, mu) = case
    _assert_brauer(name, lam, mu)


@pytest.mark.parametrize("name,side", [
    (name, side) for name in REFERENCE_TYPES for side in ("least 1", "least 0")
    if side in _pairs_by_side(name)])
def test_every_pair_at_the_edge_of_the_fork_matches_the_brauer_reference(monkeypatch, name, side):
    # least 1 folds nothing and least 0 folds a wall point: each edge is
    # checked on every pair, not only on the pairs drawn above, and each
    # pair takes its own side of the fork
    pairs, folds, real = _pairs_by_side(name)[side], [], finchar._fold
    monkeypatch.setattr(finchar, "_fold", lambda *args: folds.append(args) or real(*args))
    for lam, mu in pairs:
        _assert_brauer(name, lam, mu)
    assert len(folds) == (0 if side == "least 1" else len(pairs))


@pytest.mark.parametrize("rs,lam,mu,drop,mult,match", [
    # a lost weight: the top orbit empties at the top but not elsewhere
    (A2, [1, 1], [1, 0], (0, 0), 0, "not Weyl-invariant"),
    # a doubled weight: every orbit keeps its cells, one orbit is uneven
    (A1, [0], [2], (2,), 2, "not Weyl-invariant"),
    # a stray cell: in the box of [0,0] x [1,1] but no weight of V_[1,1]
    (A2, [0, 0], [1, 1], (0, 2), 1, "not Weyl-invariant"),
    # a lost weight that keeps the symmetry: chi_2 - e^0 reads N_0 = -1
    (A1, [0], [2], (1,), 0, r"^read-off multiplicity -1 < 0 for \[0\] in \[0\] x \[2\]$"),
])
def test_oracle_self_check_catches_a_wrong_character(monkeypatch, rs, lam, mu, drop, mult, match):
    # chi_mu's cell at ``drop`` (root coordinates of mu - x) is set to ``mult``;
    # the packed characters are built afresh from it, and none is cached
    real = finchar._character

    def character_with_one_cell_changed(rs_, wt):
        pairs, (*columns, mults), lows = real(rs_, wt)
        cells = dict(zip(zip(*columns), mults))
        if wt == Weight(mu):
            cells[drop] = mult
        return pairs, tuple(zip(*((*d, m) for d, m in cells.items() if m))), lows

    monkeypatch.setattr(finchar, "_character", character_with_one_cell_changed)
    monkeypatch.setattr(finchar, "_packed", finchar._packed.__wrapped__)
    with pytest.raises(InternalInconsistencyError, match=match):
        finchar.tensor_oracle(rs, Weight(lam), Weight(mu))


@pytest.mark.parametrize("mult,fits", [(2 ** 32 - 1, True), (2 ** 32, False)])
def test_oracle_cell_width_follows_the_masses(monkeypatch, mult, fits):
    # a trivial grid of mass ``mult`` squared: one product cell, kept exact up
    # to a 64-bit limb and refused beyond it (packed afresh, never cached)
    monkeypatch.setattr(finchar, "_character", lambda rs, wt: ((), ((0,), (mult,)), (0,)))
    monkeypatch.setattr(finchar, "_packed", finchar._packed.__wrapped__)
    zero = Weight([0])
    if fits:
        assert finchar.tensor_oracle(A1, zero, zero) == {zero: mult * mult}
    else:
        with pytest.raises(DimensionCapError, match="64-bit"):
            finchar.tensor_oracle(A1, zero, zero)


def test_one_character_is_packed_per_strides_and_limb():
    # V_[1,0] of A2 in four products: two boxes whose masses fit byte limbs and
    # two that need 16-bit limbs.  Each (strides, limb) packs it once, as the
    # integer of the full box, and the oracle reads every product right.
    lam, laid = Weight([1, 0]), set()
    for cache in (finchar._packed, finchar._product_plan, finchar._flat_orbit):
        cache.cache_clear()
    for mu, limb in [([1, 0], "B"), ([2, 2], "B"), ([4, 4], "H"), ([4, 3], "H")]:
        mu = Weight(mu)
        strides, cells, nus = finchar._product_plan(A2, lam + mu)[:3]
        laid.update((nu, strides) for nu in nus)
        assert _as_plain(finchar.tensor_oracle(A2, lam, mu)) == \
            oracles.tensor_reference(A2.cartan, lam, mu)
        box = array.array(limb, bytes(cells * array.array(limb).itemsize))
        for x, m in finchar.weight_multiplicities(A2, lam).items():
            box[sum(map(mul, map(int, root_coords(A2, lam - x)), strides))] = m
        if sys.byteorder == "big":
            box.byteswap()  # the packed integer reads little-endian limbs on any host
        hits, full_box = finchar._packed.cache_info().hits, box.tobytes()
        assert finchar._packed(A2, lam, strides, limb) == int.from_bytes(full_box, "little")
        assert finchar._packed.cache_info().hits == hits + 1
    # [1,0] packed under four (strides, limb) keys, each other factor once
    assert finchar._packed.cache_info().currsize == 7
    # each W.nu of the four plans laid flat once per strides: drop . strides per weight
    info = finchar._flat_orbit.cache_info()
    assert info.currsize == info.misses == len(laid)
    for nu, strides in laid:
        assert finchar._flat_orbit(A2, nu, strides) == tuple(
            sum(map(mul, map(int, root_coords(A2, nu - x)), strides)) for x, _ in finchar._orbit(A2, nu))


@pytest.mark.parametrize("rs,lam,mu", [
    (A2, [1, 0], [1, 1]), (A2, [2, 1], [3, 3]), (G2, [1, 0], [0, 1]), (G2, [1, 1], [2, 0])])
def test_packed_character_is_its_arithmetic_integer(rs, lam, mu):
    # on any host, V_lam packs to sum m * 2**(8 * limb size * flat) over its
    # weights, flat = rc(lam - x) . strides in the box of lam + mu
    lam, mu = Weight(lam), Weight(mu)
    strides = finchar._product_plan(rs, lam + mu)[0]
    mults = finchar.weight_multiplicities(rs, lam)
    for limb in "BHIQ":
        bits = 8 * array.array(limb).itemsize
        expected = sum(m << bits * sum(map(mul, map(int, root_coords(rs, lam - x)), strides))
                       for x, m in mults.items())
        assert finchar._packed(rs, lam, strides, limb) == expected
    # a big-endian host reverses the bytes of each limb before reading
    assert finchar._byteswapped(b"\x01\x02", "H").tolist() == \
        [int.from_bytes(b"\x02\x01", sys.byteorder)]


def test_oracle_never_walks_to_the_dominant_chamber(monkeypatch):
    # with both characters built, the read-off must not reuse the walk that
    # tensor_decompose is built on
    lam, mu = Weight([2, 1]), Weight([1, 1])
    want = finchar.tensor_decompose(B2, lam, mu)
    finchar.weight_multiplicities(B2, lam)
    finchar.weight_multiplicities(B2, mu)

    def refuse(*args, **kwargs):
        raise AssertionError("tensor_oracle called weyl._dominant_walk")

    monkeypatch.setattr(weyl, "_dominant_walk", refuse)
    assert finchar.tensor_oracle(B2, lam, mu) == want


def test_each_character_is_walked_once(monkeypatch):
    # decompose reads chi_mu; the oracle reads chi_lam, chi_mu and the plan of
    # lam + mu; weight_multiplicities reads chi_lam again.  Three walks below a
    # highest weight (lam, mu, lam + mu), one orbit walk per distinct dominant
    # weight under any of them (the 4 under lam hold the 2 under mu, and 11
    # lie under lam + mu: 15 orbits) and one of rho for the plan's signed sums.
    for obj in vars(finchar).values():
        if getattr(obj, "__module__", None) == finchar.__name__ and hasattr(obj, "cache_clear"):
            obj.cache_clear()
    calls = {"_descend": 0, "_dominant_below": 0}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    count(weyl, "_descend")
    count(finchar, "_dominant_below")
    lam, mu = Weight([2, 1]), Weight([1, 1])

    def sequence():
        finchar.tensor_decompose(B2, lam, mu)
        finchar.tensor_oracle(B2, lam, mu)
        finchar.weight_multiplicities(B2, lam)

    sequence()
    assert calls == {"_descend": 16, "_dominant_below": 3}
    # with the orbits warm, rebuilding the characters and the plan walks no
    # orbit again: the one walk left is the plan's rho-walk under lam + mu
    finchar._character.cache_clear()
    finchar._product_plan.cache_clear()
    calls.update(_descend=0, _dominant_below=0)
    sequence()
    assert calls == {"_descend": 1, "_dominant_below": 3}


def test_oracle_dimension_guard():
    with pytest.raises(DimensionCapError):
        finchar.tensor_oracle(A2, Weight([5, 5]), Weight([5, 5]), cap=10 ** 3)


def test_oracle_refuses_a_product_box_above_the_cap():
    # dimension product 248, but the box of drops under W.theta has 14.2M cells
    e8 = root_system("E8")
    with pytest.raises(DimensionCapError,
                       match=r"^product box of 14189175 cells exceeds cap 1000000$"):
        finchar.tensor_oracle(e8, e8.theta, Weight.zero(8))


def test_plan_walks_rho_only_under_the_drops_of_the_top(monkeypatch):
    # |W(E8)| = 696,729,600: the plan of E8 theta lists the 3,363 w(rho) whose
    # drops lie under those of theta, and never walks the whole rho-orbit
    e8, walked = root_system("E8"), []
    real = weyl._descend

    def bounded(rs, start, bound=None):
        assert start != rs.rho or bound is not None, "unbounded rho-walk"
        terms = real(rs, start, bound)
        if start == rs.rho:
            walked.append(len(terms))
        return terms

    monkeypatch.setattr(weyl, "_descend", bounded)
    finchar._product_plan.__wrapped__(e8, e8.theta)
    assert len(walked) == 1 and 0 < walked[0] < 10 ** 4


TRUSTED_TYPES = ["A1", "A2", "A3", "B2", "C3", "G2"]


@st.composite
def _system_with_weights(draw):
    """A root system, two small dominant weights and any integral weight."""
    rs = root_system(draw(st.sampled_from(TRUSTED_TYPES)))
    top = 2 if rs.rank < 3 else 1
    dominant = st.lists(st.integers(0, top), min_size=rs.rank, max_size=rs.rank)
    anywhere = st.lists(st.integers(-4, 4), min_size=rs.rank, max_size=rs.rank)
    return rs, draw(dominant), draw(dominant), draw(anywhere)


def _int_weights(weights):
    return all(type(w) is Weight and all(type(c) is int for c in w) and w == Weight(tuple(w))
               for w in weights)


@settings(max_examples=60, deadline=None, database=None)
@given(_system_with_weights(), st.booleans())
def test_every_weight_returned_has_int_coordinates(case, shifted):
    # finchar builds its weights unchecked (rootsys._trusted); each must still
    # be the Weight that the checked constructor gives
    rs, lam, mu, wt = case
    assert _int_weights(finchar.weight_multiplicities(rs, lam))
    assert _int_weights(finchar.tensor_decompose(rs, lam, mu))
    assert _int_weights(finchar.tensor_oracle(rs, lam, mu))
    assert _int_weights(weyl.orbit(rs, wt, shifted=shifted))
    assert _int_weights(weyl.dominant_rep(rs, wt, shifted=shifted)[:1])


def test_a_warm_decompose_checks_no_weight_per_key(monkeypatch):
    lam, mu = Weight([2, 1]), Weight([1, 1])
    parts = finchar.tensor_decompose(B2, lam, mu)
    real, built = Weight.__new__, []

    def counted(cls, coords):
        built.append(coords)
        return real(cls, coords)

    monkeypatch.setattr(Weight, "__new__", counted)
    assert finchar.tensor_decompose(B2, lam, mu) == parts
    assert len(parts) > 1 and built == []


# ---------------------------------------------------------------------------
# duality invariants


@pytest.mark.parametrize("rs", [A2, B2, G2])
def test_dual_has_same_dimension(rs):
    for lam in itertools.product(range(4), repeat=rs.rank):
        lam = Weight(lam)
        assert finchar.dimension(rs, lam) == \
            finchar.dimension(rs, weyl.bar_involution(rs, lam))


@pytest.mark.parametrize("rs", [A1, A2, B2])
def test_trivial_summand_iff_dual_pair(rs):
    # [0] occurs exactly once in lam (x) mu when mu is the dual of lam,
    # never otherwise
    zero = Weight.zero(rs.rank)
    for lam in itertools.product(range(3), repeat=rs.rank):
        lam = Weight(lam)
        dual = weyl.bar_involution(rs, lam)
        for mu in itertools.product(range(3), repeat=rs.rank):
            mu = Weight(mu)
            parts = finchar.tensor_decompose(rs, lam, mu)
            if mu == dual:
                assert parts.get(zero) == 1
            else:
                assert zero not in parts

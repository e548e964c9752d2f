from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

import oracles
from afftrans.errors import DomainError, InvalidRootSystemError
from afftrans.rootsys import (
    RootSystemSpec,
    Weight,
    bilinear,
    build_root_system,
    coroot_pairings,
    pairing,
    root_coords,
    root_system,
)

TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "E6", "F4", "G2"]


def _series_rank(name):
    return name[0], int(name[1:])


# ---------------------------------------------------------------------------
# frozen construction data


def test_a1_construction():
    rs = root_system("A1")
    assert rs.cartan == ((2,),)
    assert rs.theta == Weight([2])
    assert rs.rho == Weight([1])
    assert rs.dual_coxeter == 2
    assert rs.positive_roots == (Weight([2]),)


def test_a2_construction():
    rs = root_system("A2")
    assert str(rs) == "A2"
    assert rs.theta == Weight([1, 1])
    assert rs.rho == Weight([1, 1])
    assert rs.dual_coxeter == 3
    assert len(rs.positive_roots) == 3
    # highest root last, simple roots first
    assert rs.positive_roots[-1] == rs.theta
    assert set(rs.simple_roots) <= set(rs.positive_roots)


@pytest.mark.parametrize("bad", ["E5", "Z9", "A0", "D2", "B1", "G3", "F5", "E9", "AA2", ""])
def test_invalid_types_rejected(bad):
    with pytest.raises(InvalidRootSystemError):
        root_system(bad)


@pytest.mark.parametrize("bad", [3, None, ("A", 2)])
def test_non_string_type_is_invalid(bad):
    with pytest.raises(InvalidRootSystemError, match="unknown type"):
        root_system(bad)


def test_bool_rank_is_invalid():
    with pytest.raises(InvalidRootSystemError, match="ATrue"):
        RootSystemSpec("A", True)


def test_invalid_type_message_names_token():
    with pytest.raises(InvalidRootSystemError, match="Z9"):
        root_system("Z9")


def test_spec_parse_roundtrip():
    spec = RootSystemSpec.parse(" A2 ")
    assert (spec.series, spec.rank) == ("A", 2)
    assert str(spec) == "A2"


def test_instances_are_cached_singletons():
    assert root_system("B3") is root_system("B3")


@pytest.mark.parametrize("spec,kind", [
    ("A2", "a str"), (None, "a NoneType"), (7, "an int"), ((1, 0), "a tuple"),
    # unhashable: refused before the cache lookup, not by it
    ([1], "a list"), ({}, "a dict"),
])
def test_build_root_system_refuses_a_non_spec(spec, kind):
    with pytest.raises(DomainError, match=f"^spec is {kind}, not a RootSystemSpec$"):
        build_root_system(spec)


# ---------------------------------------------------------------------------
# pairing and bilinear form


def test_pairing_examples():
    a1 = root_system("A1")
    for m in (-3, 0, 1, 7):
        assert pairing(a1, Weight([m]), a1.theta) == m
    a2 = root_system("A2")
    assert pairing(a2, a2.rho, a2.theta) == 2
    assert pairing(a2, Weight.zero(2), a2.theta) == 0


def test_pairing_requires_a_root():
    a2 = root_system("A2")
    with pytest.raises(DomainError):
        pairing(a2, a2.rho, Weight([2, 2]))


@pytest.mark.parametrize("call", [
    lambda rs: root_coords(rs, [1]),
    lambda rs: root_coords(rs, [1, 2, 3]),
    lambda rs: bilinear(rs, [1], [1, 1]),
    lambda rs: bilinear(rs, [1, 1], [1, 1, 1]),
    lambda rs: pairing(rs, [1], rs.theta),
    lambda rs: coroot_pairings(rs, [1]),
    lambda rs: coroot_pairings(rs, [1, 0, 0]),
])
def test_wrong_rank_weights_rejected(call):
    with pytest.raises(DomainError, match="wrong rank for A2"):
        call(root_system("A2"))


def test_bilinear_examples():
    a1 = root_system("A1")
    assert bilinear(a1, Weight([1]), Weight([1])) == Fraction(1, 2)
    a2 = root_system("A2")
    assert bilinear(a2, a2.rho, a2.theta) == 2
    assert bilinear(a2, Weight.zero(2), a2.rho) == 0


@pytest.mark.parametrize("name", TYPES)
def test_theta_normalised_to_length_two(name):
    rs = root_system(name)
    assert bilinear(rs, rs.theta, rs.theta) == 2


@pytest.mark.parametrize("name", TYPES)
def test_bilinear_symmetry_random(name):
    rs = root_system(name)
    rng = random.Random(20260823)
    for _ in range(100):
        lam = Weight(rng.randint(-4, 4) for _ in range(rs.rank))
        mu = Weight(rng.randint(-4, 4) for _ in range(rs.rank))
        assert bilinear(rs, lam, mu) == bilinear(rs, mu, lam)


@pytest.mark.parametrize("name", TYPES)
def test_rho_pairs_to_height(name):
    # <rho, alpha^vee> >= 1 on positive roots, with equality exactly on the
    # simple ones.
    rs = root_system(name)
    simple = set(rs.simple_roots)
    for alpha in rs.positive_roots:
        val = pairing(rs, rs.rho, alpha)
        assert val >= 1
        assert (val == 1) == (alpha in simple)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "D4", "E6"])
def test_simply_laced_pairing_is_bilinear_on_roots(name):
    rs = root_system(name)
    assert rs.is_simply_laced
    for alpha in rs.positive_roots:
        for beta in rs.positive_roots:
            assert pairing(rs, alpha, beta) == bilinear(rs, alpha, beta)


def test_non_simply_laced_flag():
    for name in ("B2", "C3", "F4", "G2"):
        assert not root_system(name).is_simply_laced


# ---------------------------------------------------------------------------
# reference tables


@pytest.mark.parametrize("name,expected", [
    ("A5", 6), ("B4", 7), ("C4", 5), ("D5", 8),
    ("E6", 12), ("E7", 18), ("E8", 30), ("F4", 9), ("G2", 4),
])
def test_dual_coxeter_numbers(name, expected):
    assert root_system(name).dual_coxeter == expected


@pytest.mark.parametrize("name", TYPES + ["A5", "B5", "C5", "D5", "E7", "E8"])
def test_positive_root_count_closed_form(name):
    series, rank = _series_rank(name)
    rs = root_system(name)
    assert len(rs.positive_roots) == oracles.positive_root_count(series, rank)
    assert len(rs.negative_root_set) == len(rs.positive_roots)


@pytest.mark.parametrize("name", [name for name in TYPES if name != "E6"])
def test_positive_roots_are_the_positive_images_of_simple_roots(name):
    # Every root is a W-image of a simple root; the positive ones have
    # nonnegative root coordinates.  (E6: 51,840 oracle matrices, too slow.)
    rs = root_system(name)
    cartan = oracles.cartan_matrix(*_series_rank(name))
    n = rs.rank
    simple = [tuple(cartan[i][j] for i in range(n)) for j in range(n)]
    images = {oracles._mat_vec(m, alpha)
              for m in oracles.weyl_group(cartan) for alpha in simple}
    positive = {v for v in images if min(oracles.root_coordinates(cartan, v)) >= 0}
    assert set(rs.positive_roots) == positive
    heights = [sum(root_coords(rs, alpha)) for alpha in rs.positive_roots]
    assert heights == sorted(heights)


@pytest.mark.parametrize("name", TYPES)
def test_cartan_matches_reference_table(name):
    series, rank = _series_rank(name)
    assert root_system(name).cartan == oracles.cartan_matrix(series, rank)


@pytest.mark.parametrize("name", TYPES)
def test_root_coords_against_independent_solver(name):
    rs = root_system(name)
    rng = random.Random(3)
    for _ in range(20):
        wt = Weight(rng.randint(-5, 5) for _ in range(rs.rank))
        got = root_coords(rs, wt)
        want = oracles.root_coordinates(rs.cartan, tuple(wt))
        assert tuple(Fraction(c) for c in got) == want


@pytest.mark.parametrize("name", TYPES)
def test_coroot_rows(name):
    rs = root_system(name)
    for row, alpha in zip(rs.coroot_rows, rs.positive_roots):
        assert all(isinstance(c, int) for c in row)
        # row applied to alpha itself gives <alpha, alpha^vee> = 2
        assert sum(c * x for c, x in zip(row, alpha)) == 2
    assert rs.dual_coxeter == 1 + sum(rs.coroot_rows[-1])
    assert coroot_pairings(rs, rs.theta)[-1] == 2


@pytest.mark.parametrize("name", TYPES)
def test_inverse_cartan_entries_positive(name):
    # dominance of a weight bounds its root coordinates from above; the
    # character code leans on every entry of the inverse being positive
    rs = root_system(name)
    for row in rs.inv_cartan:
        assert all(c > 0 for c in row)


# ---------------------------------------------------------------------------
# Weight behaviour


def test_weight_arithmetic():
    a = Weight([1, -2])
    b = Weight([3, 5])
    assert a + b == Weight([4, 3])
    assert b - a == Weight([2, 7])
    assert -a == Weight([-1, 2])
    assert 3 * a == Weight([3, -6])
    assert a * Fraction(1, 2) == Weight([Fraction(1, 2), -1])
    assert Weight.zero(3) == Weight([0, 0, 0])


@pytest.mark.parametrize("op,other", [
    ("+", [1]), ("-", [1]), ("+", [1, 2, 3]), ("-", 5), ("+", 5), ("+", None), ("-", None),
    ("+", ["x", 0]), ("-", [1j, 0]), ("+", [0.5, 0]), ("-", [0.5, 0]),
], ids=["add-short", "sub-short", "add-long", "sub-int", "add-int", "add-None", "sub-None",
        "add-str-coordinate", "sub-complex-coordinate", "add-float", "sub-float"])
def test_weight_arithmetic_with_a_non_weight_names_both_operands(op, other):
    a = Weight([1, 0])
    message = f"cannot compute weight [1,0] {op} {other!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        a + other if op == "+" else a - other


def test_weight_arithmetic_keeps_exact_results():
    half = Fraction(1, 2)
    assert Weight([1, half]) + [half, 0] == Weight([Fraction(3, 2), half])
    difference = Weight([1, half]) - [0, half]
    assert difference == Weight([1, 0]) and type(difference[1]) is int


def test_weight_exactness():
    w = Weight([Fraction(4, 2), Fraction(1, 3)])
    assert w[0] == 2 and isinstance(w[0], int)
    assert isinstance(w[1], Fraction)
    assert not w.is_integral
    assert Weight([1, 0]).is_integral


def test_weight_rejects_floats():
    with pytest.raises(TypeError):
        Weight([0.5])
    with pytest.raises(TypeError):
        Weight([1, 2]) * 1.5


@pytest.mark.parametrize("bad", [[True, 0], ["1/2", 0], [None, 0], [b"1", 0], [1j, 0]])
def test_weight_refuses_non_number_coordinates(bad):
    with pytest.raises(DomainError, match=r"^coordinate .+ is a \w+, not a number$"):
        Weight(bad)


@pytest.mark.parametrize("bad", [5, None, "12", b"\x01\x00", bytearray(2)])
def test_weight_refuses_non_sequences(bad):
    with pytest.raises(DomainError, match="^weight .+ is not a sequence of numbers$"):
        Weight(bad)


def test_weight_scalar_must_be_a_number():
    for bad in (True, "2"):
        with pytest.raises(DomainError, match="not a number$"):
            Weight([1, 2]) * bad


def test_weight_flags_and_text():
    assert Weight([0, 3]).is_dominant
    assert not Weight([-1, 3]).is_dominant
    assert str(Weight([1, 0])) == "[1,0]"
    assert str(Weight([Fraction(3, 2)])) == "[3/2]"


def test_weights_sort_lexicographically():
    ws = [Weight([1, 0]), Weight([0, 2]), Weight([0, 1]), Weight([1, -1])]
    assert sorted(ws) == [Weight([0, 1]), Weight([0, 2]), Weight([1, -1]), Weight([1, 0])]

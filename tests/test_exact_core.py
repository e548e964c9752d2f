"""Integer-scaled rootsys arithmetic against a plain Fraction reference.

The library keeps the inverse Cartan matrix and the invariant form as
integer matrices over one common denominator, read off a Gram sum over the
positive roots.  The reference here redoes every formula over ``Fraction``:
root coordinates by the Gauss-Jordan solve of ``oracles.root_coordinates``,
the rest from the public ``form``, itself checked against the oracle's form
built from the Dynkin-diagram symmetrizer.  Results must agree in value and
in type (``int`` exactly when the value is integral).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from afftrans import rootsys
from afftrans.rootsys import (
    RootSystemSpec,
    Weight,
    bilinear,
    coroot_pairings,
    pairing,
    root_coords,
    root_system,
)

TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
         + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(3, 9)]
         + ["E6", "E7", "E8", "F4", "G2"])

SETTINGS = settings(max_examples=150, deadline=None, database=None)

integral = st.integers(-6, 6)
rational = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


def _norm(x: Fraction):
    return int(x) if x.denominator == 1 else x


def _same(got, want) -> bool:
    return (len(got) == len(want)
            and all(g == w and type(g) is type(w) for g, w in zip(got, want)))


def ref_root_coords(rs, wt):
    return tuple(map(_norm, oracles.root_coordinates(rs.cartan, wt)))


def ref_bilinear(rs, lam, mu):
    return _norm(sum((Fraction(lam[i]) * rs.form[i][j] * mu[j]
                      for i in range(rs.rank) for j in range(rs.rank)), Fraction(0)))


def ref_pairing(rs, lam, alpha):
    return _norm(2 * Fraction(ref_bilinear(rs, lam, alpha)) / ref_bilinear(rs, alpha, alpha))


# the dual Coxeter numbers of the tables (Kac, Infinite-dimensional Lie algebras, ch. 6)
DUAL_COXETER = {"A": lambda n: n + 1, "B": lambda n: 2 * n - 1, "C": lambda n: n + 1,
                "D": lambda n: 2 * n - 2, "E": {6: 12, 7: 18, 8: 30}.get,
                "F": lambda n: 9, "G": lambda n: 4}


@pytest.mark.parametrize("name", TYPES + ["A12", "B10", "C10", "D12"])
def test_coroots_dual_coxeter_and_form_match_the_reference(name):
    rs = root_system(name)
    cartan = oracles.cartan_matrix(name[0], rs.rank)
    assert rs.cartan == cartan
    d = oracles.symmetrizer(cartan)
    roots = oracles.positive_roots(cartan)
    fundamental = [Weight(sum(a * c for a, c in zip(row, rc)) for row in cartan) for rc in roots]
    want = dict(zip(fundamental, (oracles.coroot(cartan, d, rc) for rc in roots)))
    assert len(rs.positive_roots) == len(want) == oracles.positive_root_count(name[0], rs.rank)
    assert dict(zip(rs.positive_roots, rs.coroot_rows)) == want
    assert all(type(c) is int for row in rs.coroot_rows for c in row)
    assert rs.theta == fundamental[-1]
    assert rs.dual_coxeter == 1 + sum(want[rs.theta]) == DUAL_COXETER[name[0]](rs.rank)
    assert rs.form == oracles.form_on_fundamental_weights(cartan, d)
    # inv_cartan's column j is the root coordinates of omega_j
    for j, omega in enumerate(rs.fundamental_weights):
        assert [row[j] for row in rs.inv_cartan] == list(oracles.root_coordinates(cartan, omega))
    for view, table, den in ((rs.inv_cartan, rs.inv_cartan_int, rs.inv_cartan_den),
                             (rs.form, rs.form_int, rs.form_den)):
        assert all(type(x) is Fraction for row in view for x in row)
        assert view == tuple(tuple(Fraction(x, den) for x in row) for row in table)
        assert den > 0 and gcd(den, *(x for row in table for x in row)) == 1  # lowest terms


@pytest.mark.parametrize("name", ["G2", "B8", "E8"])
def test_datum_builds_no_fraction_beyond_its_two_views(name, monkeypatch):
    """The datum is integer arithmetic: the only ``Fraction``s built are
    the entries of the public ``inv_cartan`` and ``form`` views."""
    calls, new = [], Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    spec = RootSystemSpec.parse(name)
    monkeypatch.setattr(Fraction, "__new__", counting)
    rs = rootsys._build_root_system.__wrapped__(spec)  # bypasses the cache
    monkeypatch.undo()
    assert len(calls) <= 2 * spec.rank ** 2
    assert rs == root_system(name) and rs is not root_system(name)


@st.composite
def system_and_weights(draw):
    """A root system with two weights, both integral or both rational."""
    rs = root_system(draw(st.sampled_from(TYPES)))
    coord = draw(st.sampled_from([integral, rational]))
    lam, mu = (Weight(draw(st.lists(coord, min_size=rs.rank, max_size=rs.rank)))
               for _ in range(2))
    return rs, lam, mu


@SETTINGS
@given(system_and_weights())
def test_root_coords_match_fraction_reference(case):
    rs, lam, _ = case
    assert _same(root_coords(rs, lam), ref_root_coords(rs, lam))


@SETTINGS
@given(system_and_weights())
def test_bilinear_matches_fraction_reference(case):
    rs, lam, mu = case
    assert _same([bilinear(rs, lam, mu)], [ref_bilinear(rs, lam, mu)])


@SETTINGS
@given(system_and_weights(), st.data())
def test_pairing_matches_fraction_reference(case, data):
    rs, lam, _ = case
    alpha = data.draw(st.sampled_from(rs.positive_roots))
    alpha = data.draw(st.sampled_from([alpha, -alpha]))
    assert _same([pairing(rs, lam, alpha)], [ref_pairing(rs, lam, alpha)])


@SETTINGS
@given(system_and_weights())
def test_coroot_pairings_match_fraction_reference(case):
    rs, lam, _ = case
    want = [ref_pairing(rs, lam, alpha) for alpha in rs.positive_roots]
    assert _same(coroot_pairings(rs, lam), want)


@SETTINGS
@given(system_and_weights())
def test_weight_arithmetic_matches_fraction_reference(case):
    _, lam, mu = case
    assert _same(lam + mu, [_norm(Fraction(a) + b) for a, b in zip(lam, mu)])
    assert _same(lam - mu, [_norm(Fraction(a) - b) for a, b in zip(lam, mu)])
    assert _same(-lam, [_norm(-Fraction(a)) for a in lam])


def test_halves_sum_to_an_int():
    half = Weight([Fraction(1, 2), Fraction(-1, 2)])
    for got in (half + half, half - (-half), -(half * -2)):
        assert _same(got, [1, -1])


@SETTINGS
@given(system_and_weights())
def test_weight_text_is_byte_identical_to_the_generator_formulas(case):
    # str and repr against their formulas before ``map(str, ...)``, written out
    for wt in case[1:] + (Weight([]), Weight([-10**20, Fraction(-7, 2), 0])):
        old_str = "[" + ",".join(str(c) for c in wt) + "]"
        assert str(wt) == old_str
        assert repr(wt) == f"Weight({old_str!r})"

"""The record classes: constructors, equality, hashes, reprs, immutability.

Reprs reach error texts and hashes fix the iteration order of generator
sets, so both are pinned to the field-tuple forms.
"""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest

from afftrans import affine, annihilator, rootsys, translate
from afftrans.affine import AffineWeylElement, Level
from afftrans.annihilator import SubmoduleLabels
from afftrans.rootsys import RootSystem, RootSystemSpec, Weight, root_system
from afftrans.translate import LinkageCharacter, TranslationDatum
from afftrans.weyl import WeylElement

A1 = root_system("A1")
A2 = root_system("A2")
P5 = Level(5, 1)
W0 = WeylElement((0, 1, 0))
G = AffineWeylElement(Weight([5, 5]), W0)
DATUM = translate.check_datum(A2, [1, 0], [1, 0], [0, 0], P5)
LABELS = annihilator.make_labels(A2, [0, 0], {G}, P5)

FROZEN = [A2.spec, A2, W0, P5, G, DATUM, LABELS]


def test_reprs_are_pinned():
    assert repr(W0) == "WeylElement(word=(0, 1, 0))"
    assert repr(P5) == "Level(p=5, q=1)"
    assert repr(G) == ("AffineWeylElement(translation=Weight('[5,5]'), "
                       "finite=WeylElement(word=(0, 1, 0)))")
    assert repr(A2.spec) == "RootSystemSpec(series='A', rank=2)"
    assert repr(DATUM) == ("TranslationDatum(lam_left=Weight('[1,0]'), "
                           "lam_right=Weight('[1,0]'), lam=Weight('[0,0]'), "
                           "level=Level(p=5, q=1))")
    assert repr(LABELS) == ("SubmoduleLabels(base=Weight('[0,0]'), "
                            "level=Level(p=5, q=1), generators=frozenset({"
                            "AffineWeylElement(translation=Weight('[5,5]'), "
                            "finite=WeylElement(word=(0, 1, 0)))}))")
    assert repr(LinkageCharacter(P5, Weight([0, 0]))) == (
        "LinkageCharacter(level=Level(p=5, q=1), base=Weight('[0,0]'), coeffs={})")
    # derived lookup tables stay out of the repr
    assert repr(A1) == (
        "RootSystem(spec=RootSystemSpec(series='A', rank=1), cartan=((2,),), "
        "simple_roots=(Weight('[2]'),), fundamental_weights=(Weight('[1]'),), "
        "positive_roots=(Weight('[2]'),), rho=Weight('[1]'), theta=Weight('[2]'), "
        "dual_coxeter=2, form=((Fraction(1, 2),),))")


def test_hashes_are_the_field_tuples():
    assert hash(G) == hash((G.translation, G.finite))
    assert hash(W0) == hash((W0.word,))
    assert hash(P5) == hash((5, 1))
    assert hash(A2.spec) == hash(("A", 2))
    assert hash(A2) == hash(A2.spec)
    assert hash(DATUM) == hash((DATUM.lam_left, DATUM.lam_right, DATUM.lam, P5))
    assert hash(LABELS) == hash((LABELS.base, LABELS.level, LABELS.generators))


def test_equality_is_by_fields_and_type_strict():
    assert Level(5, 1) == P5 and Level(5, 1) != (5, 1)
    assert P5.__eq__((5, 1)) is NotImplemented
    assert WeylElement((0, 1, 0)) == W0 and W0 != (0, 1, 0)
    assert AffineWeylElement(Weight([5, 5]), WeylElement((0, 1, 0))) == G
    assert G != (G.translation, G.finite) and G != W0
    assert RootSystemSpec("A", 2) == A2.spec and A2.spec != ("A", 2)
    assert A2 != A2.spec and A1 != A2
    # equality and hash ignore the derived root_index and negative_root_set
    names = list(inspect.signature(RootSystem).parameters)
    fields = {name: getattr(A2, name) for name in names}
    twin = RootSystem(**{**fields, "root_index": {}, "negative_root_set": frozenset()})
    assert twin == A2 and hash(twin) == hash(A2)


def test_constructors_take_positions_and_keywords():
    assert Level(p=7, q=2) == Level(7, 2)
    assert AffineWeylElement(translation=G.translation, finite=W0) == G
    assert WeylElement(word=(0, 1, 0)) == W0
    assert RootSystemSpec(series="A", rank=2) == A2.spec
    assert TranslationDatum(lam_left=Weight([1, 0]), lam_right=Weight([1, 0]),
                            lam=Weight([0, 0]), level=P5) == DATUM
    assert SubmoduleLabels(Weight([0, 0]), P5, frozenset({G})) == LABELS
    assert list(inspect.signature(RootSystem).parameters) == [
        "spec", "cartan", "simple_roots", "fundamental_weights", "positive_roots",
        "rho", "theta", "dual_coxeter", "form", "inv_cartan", "inv_cartan_int",
        "inv_cartan_den", "form_int", "form_den", "coroot_rows", "root_index",
        "negative_root_set"]


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment(record):
    name = next(iter(inspect.signature(type(record)).parameters))
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_records_copy_and_pickle(record):
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == repr(record)


def test_linkage_character_is_mutable_and_unhashable():
    a = LinkageCharacter(P5, Weight([0, 0]))
    b = LinkageCharacter(P5, Weight([0, 0]))
    assert a.coeffs == {} and a.coeffs is not b.coeffs  # a fresh default each
    a.coeffs[G] = 1
    assert b.coeffs == {} and a != b
    b.coeffs = {G: 1}
    assert a == b and a != (P5, Weight([0, 0]), {G: 1})
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
    chi = translate.make_character(A2, [0, 0], {affine.identity_element(2): 1}, P5)
    assert pickle.loads(pickle.dumps(chi)) == chi


# ---------------------------------------------------------------------------
# the one record protocol, over every record class

CHI = translate.make_character(A2, [0, 0], {affine.identity_element(2): 3}, P5)
SAMPLES = {type(record): record for record in FROZEN + [CHI]}


def _record_classes(base=rootsys._Record):
    found = set()
    for cls in base.__subclasses__():
        found |= _record_classes(cls)
        if cls.__slots__:  # a layer of the base such as _Frozen has none
            found.add(cls)
    return found


def test_every_record_class_has_a_sample():
    # a new record class must join SAMPLES, and so every test below
    assert _record_classes() == set(SAMPLES)
    assert len(SAMPLES) == 8


@pytest.mark.parametrize("record", SAMPLES.values(), ids=lambda r: type(r).__name__)
def test_record_protocol(record):
    cls = type(record)
    # derived by the base, but for RootSystem's cached hash and its pickles
    # through build_root_system (LinkageCharacter's __hash__ is None)
    own = {name for name in ("__eq__", "__hash__", "__repr__", "__reduce__")
           if not getattr(getattr(cls, name), "__qualname__", "_Record.").startswith("_Record.")}
    assert own == ({"__hash__", "__reduce__"} if cls is RootSystem else set())
    fields = cls.__slots__[:15] if cls is RootSystem else cls.__slots__
    values = tuple(getattr(record, name) for name in fields)
    for other in (object(), values, *(r for r in SAMPLES.values() if r is not record)):
        assert record.__eq__(other) is NotImplemented
    if cls is RootSystem:
        assert hash(record) == hash(record.spec)
    elif cls is LinkageCharacter:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(values)
    shown = fields[:9] if cls is RootSystem else fields
    assert repr(record) == (
        f"{cls.__name__}({', '.join(f'{n}={getattr(record, n)!r}' for n in shown)})")
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record and repr(clone) == repr(record)

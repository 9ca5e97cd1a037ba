"""The library's value classes behave as ``@dataclass(frozen=True)`` classes would.

Each twin below is a frozen dataclass with the field flags of the class of
the same name, so the two must agree on ``repr``, ``==``, ``!=`` and
``hash`` (or on raising ``TypeError`` from it).  The library itself does
not import ``dataclasses``, and no value class keeps a ``__dict__``.
"""

import copy
import importlib
import itertools
import pickle
import pkgutil
from dataclasses import dataclass, field
from typing import Optional, Tuple

import pytest

import freesplit
from freesplit import blowup, complexes, freegroup, partitions, values, verify


@dataclass(frozen=True)
class Partition:
    rank: int
    mask: int

    __repr__ = partitions.Partition.__repr__
    encode = partitions.Partition.encode


@dataclass(frozen=True)
class GraphOfGroups:
    rank: int
    vertices: tuple
    edges: tuple


@dataclass(frozen=True)
class BoundaryType:
    tag: str
    family: tuple


@dataclass(frozen=True)
class SplittingGraph:
    rank: int
    mode: str
    vertices: tuple
    edges: tuple


@dataclass(frozen=True)
class KLocalGraph:
    rank: int
    vertices: tuple
    edges: tuple


@dataclass(frozen=True)
class Word:
    rank: int
    letters: Tuple[int, ...]

    __repr__ = freegroup.Word.__repr__
    to_string = freegroup.Word.to_string


@dataclass(frozen=True)
class CyclicWord:
    rank: int
    letters: Tuple[int, ...]


@dataclass(frozen=True)
class FreeAutomorphism:
    rank: int
    images: tuple
    inverse_images: tuple
    table: tuple = field(default=None, init=False, compare=False, repr=False)
    _inverse: object = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class VerificationReport:
    lemma: str
    rank: Optional[int]
    cases_checked: int
    failures: Tuple[str, ...]
    details: tuple = ()

    __hash__ = None


#: Each library class with its twin and the names of its __init__ arguments.
CLASSES = [
    (partitions.Partition, Partition, ("rank", "mask")),
    (blowup.GraphOfGroups, GraphOfGroups, ("rank", "vertices", "edges")),
    (blowup.BoundaryType, BoundaryType, ("tag", "family")),
    (complexes.SplittingGraph, SplittingGraph, ("rank", "mode", "vertices", "edges")),
    (complexes.KLocalGraph, KLocalGraph, ("rank", "vertices", "edges")),
    (freegroup.Word, Word, ("rank", "letters")),
    (freegroup.CyclicWord, CyclicWord, ("rank", "letters")),
    (freegroup.FreeAutomorphism, FreeAutomorphism, ("rank", "images", "inverse_images")),
    (verify.VerificationReport, VerificationReport,
     ("lemma", "rank", "cases_checked", "failures", "details")),
]


def _partition(rank, side):
    return partitions.Partition.parse(rank, side)


def _samples():
    """Constructor arguments per class; some samples are equal, some not."""
    p, q = _partition(3, "x2+,x3-"), _partition(3, "x2-,x3+")
    rose = blowup.blow_up([partitions.petal_class(3, i) for i in (1, 2, 3)], 3)
    thick = blowup.blow_up([p], 3)
    boundary = blowup.boundary_splitting(_partition(3, "x1-,x2+"), _partition(3, "x1-,x2-"))
    star = complexes.build_star_graph(3)
    local = complexes.k_graph_local(3)
    nielsen = freegroup.nielsen(3, 1, 2)
    twist = freegroup.twist(3, 3, freegroup.Word(3, (1, -2)), "left")
    return {
        partitions.Partition: [(4, 0b0110), (4, 0b11111001), (3, 0b000110), (3, p.mask)],
        blowup.GraphOfGroups: [(g.rank, g.vertices, g.edges) for g in (rose, thick, rose)],
        blowup.BoundaryType: [
            (boundary.tag, boundary.family),
            ("cage-3", boundary.family),
            (boundary.tag, (p, q)),
        ],
        complexes.SplittingGraph: [
            (3, "ens", star.vertices, star.edges),
            (3, "ens", (p, q), ()),
            (3, "ens", (p, q), ((0, 1, "rose"),)),
        ],
        complexes.KLocalGraph: [(3, local.vertices, local.edges), (3, (), ()), (4, (), ())],
        freegroup.Word: [(3, (1, 2)), (3, [1, 2]), (3, ()), (2, (1, 2))],
        freegroup.CyclicWord: [(2, (1, 2)), (2, [1, 2]), (3, (1, 2)), (3, ())],
        freegroup.FreeAutomorphism: [
            (3, nielsen.images, nielsen.inverse_images),
            (3, list(nielsen.images), list(nielsen.inverse_images)),
            (3, twist.images, twist.inverse_images),
        ],
        verify.VerificationReport: [
            ("three-rose", 3, 9, ()),
            ("three-rose", 3, 9, (), ()),
            ("three-rose", 3, 9, ("tau1/sigma2 not compatible",), (("k", 1),)),
            ("whitehead-factor", None, 9, ()),
        ],
    }


SAMPLES = _samples()


def _hash(value):
    """``hash(value)``, or ``TypeError`` where the class refuses hashing."""
    try:
        return hash(value)
    except TypeError:
        return TypeError


def _distinct(items):
    """The number of distinct items under ``==``."""
    kept = []
    for item in items:
        if item not in kept:
            kept.append(item)
    return len(kept)


def _built(cls, names, args):
    """The instance built positionally, after checking the keyword build matches it."""
    positional = cls(*args)
    keyword = cls(**dict(zip(names, args)))
    assert positional == keyword and _hash(positional) == _hash(keyword)
    assert (_hash(positional) is TypeError) == (cls.__hash__ is None)
    assert repr(positional) == repr(keyword)
    return positional


def _twin(twin, names, value):
    """The twin holding the library instance's stored arguments."""
    return twin(**{name: getattr(value, name) for name in names})


@pytest.mark.parametrize("cls, twin, names", CLASSES, ids=[c[0].__name__ for c in CLASSES])
def test_value_class_agrees_with_its_dataclass_twin(cls, twin, names):
    # The first sample is built twice, so some pairs are equal but not identical.
    values = [_built(cls, names, args) for args in SAMPLES[cls] + SAMPLES[cls][:1]]
    twins = [_twin(twin, names, value) for value in values]
    for value, other in zip(values, twins):
        assert repr(value) == repr(other)
        assert _hash(value) == _hash(other)
        assert value.__eq__(other) is NotImplemented
        assert value.__eq__(object()) is NotImplemented
    for (a, a_twin), (b, b_twin) in itertools.product(zip(values, twins), repeat=2):
        assert (a == b, a != b) == (a_twin == b_twin, a_twin != b_twin)
    assert _distinct(values) == _distinct(twins) < len(values)
    if cls.__hash__ is not None:
        assert len(set(values)) == len(set(twins)) == _distinct(values)


@pytest.mark.parametrize("cls, twin, names", CLASSES, ids=[c[0].__name__ for c in CLASSES])
def test_value_class_is_frozen(cls, twin, names):
    value = _built(cls, names, SAMPLES[cls][0])
    for name in names + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")


def _clones(value):
    return copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("cls, twin, names", CLASSES, ids=[c[0].__name__ for c in CLASSES])
def test_value_class_survives_copy_and_pickle(cls, twin, names):
    value = _built(cls, names, SAMPLES[cls][0])
    for clone in _clones(value):
        assert clone == value and repr(clone) == repr(value)


def _listed(arg):
    """``arg`` with every tuple in it, at any depth but not inside a ``Value``, made a list."""
    return [_listed(a) for a in arg] if isinstance(arg, tuple) else arg


def test_values_built_from_lists_equal_the_tuple_built_ones():
    # Each sequence field is stored as tuples at every depth, whichever
    # sequences it was given, and a field given as a generator is read once.
    for cls, _, _ in CLASSES:
        for args in SAMPLES[cls]:
            listed = [_listed(a) for a in args]
            streamed = [iter(a) if isinstance(a, list) else a for a in listed]
            value = cls(*args)
            for given in (listed, streamed):
                other = cls(*given)
                assert other == value and repr(other) == repr(value), cls
                assert _hash(other) == _hash(value), cls


def _value_classes():
    """Every subclass of ``Value`` defined in the library's modules."""
    for module in pkgutil.iter_modules(freesplit.__path__):
        if module.name != "__main__":
            importlib.import_module("freesplit." + module.name)
    found, todo = [], [values.Value]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("freesplit."):
                found.append(sub)
                todo.append(sub)
    return found


def test_no_value_class_lists_dict_in_its_slots():
    classes = _value_classes()
    for cls in classes:
        for base in cls.__mro__:
            assert "__dict__" not in base.__dict__.get("__slots__", ()), (cls, base)
    # Every value class has a dataclass twin above.
    assert set(classes) == {cls for cls, _, _ in CLASSES}


def test_derived_slots_are_built_in_the_constructor():
    graph = complexes.build_star_graph(3)
    rebuilt = complexes.SplittingGraph(3, "ens", graph.vertices, graph.edges)
    assert rebuilt == graph and rebuilt.adjacency == graph.adjacency
    assert rebuilt.index_of(graph.vertices[2]) == 2


def test_clones_are_built_by_the_constructor():
    # Copy and pickle call the class on its fields, so derived slots are
    # built afresh and an automorphism's clone is paired with its own inverse.
    assert not hasattr(values.Value, "__setstate__")
    phi = freegroup.nielsen(3, 1, 2)
    assert phi.inverse().inverse() is phi
    for value in (phi, *_clones(phi)):
        assert value == phi and value.table == phi.table
        assert value.inverse().inverse() is value
        fresh = freegroup.FreeAutomorphism(value.rank, value.images, value.inverse_images)
        assert pickle.dumps(value) == pickle.dumps(fresh)
    star = complexes.build_star_graph(3)
    for clone in _clones(star):
        assert clone.adjacency == star.adjacency and clone.index_of(star.vertices[7]) == 7


def test_automorphism_keeps_its_table_and_paired_inverse_out_of_the_value():
    phi = freegroup.nielsen(3, 1, 2)
    fresh = freegroup.FreeAutomorphism(3, phi.images, phi.inverse_images)
    assert phi.inverse().inverse() is phi
    assert fresh == phi and hash(fresh) == hash(phi) and repr(fresh) == repr(phi)
    assert fresh.table == phi.table

"""The frozen records of every layer: construction, equality, hashing,
immutability, printing, copying and pickling, pinned class by class.  Terms
are plain tuples, and records hold them as fields, so each shape of term is
held to the same value behaviour."""

import copy
import inspect
import pickle

import pytest

from lemmas import Or, RelGraphTower, incidence_matrix
from stonework import boolalg, interval, profinite, terms, zhomology
from stonework.boolalg import (
    DualityReport,
    FinBoolAlg,
    LlpoReport,
    Morphism,
    MorphismReport,
    Presentation,
    WlpoReport,
    binfty,
    spectrum,
)
from stonework.errors import (
    DuplicateGenerator,
    InvariantViolated,
    RelationNotPreserved,
    UnknownGenerator,
)
from stonework.interval import BitWord, Dyadic, IntervalUnion, interval_graph
from stonework.profinite import (
    CountablePresentation,
    RelGraph,
    SeqDiagram,
)
from stonework.terms import ONE, ZERO, And, Gen, Not, meet, parse_term
from stonework.zhomology import (
    AbInvariants,
    ChainComplexZ,
    HomologyResult,
    Incidence,
    IntMatrix,
    LevelCohomology,
    StabilizationReport,
    graph_cech_complex,
    snf_invariants,
    stabilization_report,
)

P2 = binfty(2)
D0 = IntMatrix(1, 2, (((0, -1), (1, 1)),))
D1 = IntMatrix(0, 1, ())
AUG0 = IntMatrix(2, 1, ((), ()))  # the zero augmentation of D0
Z1 = AbInvariants(1)
Z0 = AbInvariants(0)
LEVEL = LevelCohomology(0, (1, 1, 1), Z1, Z0, (True, True, True))

# class -> (a fresh sample, a sample of the same class with one field changed, its repr)
SAMPLES = {
    Presentation: (
        lambda: binfty(2),
        lambda: binfty(3),
        "Presentation(gens=('g0', 'g1'), rels=(('g0', 'g1', '&'),))",
    ),
    FinBoolAlg: (
        lambda: spectrum(binfty(2)),
        lambda: FinBoolAlg(P2, (0, 1)),
        "FinBoolAlg(source=Presentation(gens=('g0', 'g1'), rels=(('g0', 'g1', '&'),)), codes=(0, 1, 2))",
    ),
    DualityReport: (
        lambda: DualityReport(3, 8, True),
        lambda: DualityReport(3, 8, False),
        "DualityReport(n_points=3, n_elements=8, bijective=True)",
    ),
    Morphism: (
        lambda: Morphism(P2, P2, {"g0": Gen("g1"), "g1": Gen("g0")}),
        lambda: Morphism(P2, P2, {"g0": Gen("g0"), "g1": Gen("g1")}),
        "Morphism(src=Presentation(gens=('g0', 'g1'), rels=(('g0', 'g1', '&'),)), "
        "dst=Presentation(gens=('g0', 'g1'), rels=(('g0', 'g1', '&'),)), "
        "images={'g0': ('g1',), 'g1': ('g0',)})",
    ),
    MorphismReport: (
        lambda: MorphismReport(True, 1, (0, 0), (0, 2, 1), True, True),
        lambda: MorphismReport(True, 1, (0, 0), (0, 1, 2), True, True),
        "MorphismReport(injective=True, kernel_size=1, kernel_top=(0, 0), point_map=(0, 2, 1), "
        "point_map_surjective=True, axiom2_consistent=True)",
    ),
    LlpoReport: (
        lambda: LlpoReport(1, True, True, (("a", (0,)), ("b", (1,))), True),
        lambda: LlpoReport(2, True, True, (("a", (0,)), ("b", (1,))), True),
        "LlpoReport(stage=1, injective=True, spectrum_map_surjective=True, "
        "decode=(('a', (0,)), ('b', (1,))), decode_consistent=True)",
    ),
    WlpoReport: (
        lambda: WlpoReport(0, (0, 0), (0, 1), 0, 0, "fails_on_gamma"),
        lambda: WlpoReport(0, (0, 0), (0, 1), 1, 1, "fails_on_beta"),
        "WlpoReport(k=0, beta=(0, 0), gamma=(0, 1), value_beta=0, value_gamma=0, verdict='fails_on_gamma')",
    ),
    Dyadic: (lambda: Dyadic(12, 4), lambda: Dyadic(3, 3), "Dyadic(num=3, exp=2)"),
    BitWord: (lambda: BitWord((0, 1, 1)), lambda: BitWord((1, 1)), "BitWord(bits=(0, 1, 1))"),
    IntervalUnion: (
        lambda: IntervalUnion("closed", ((Dyadic(0, 0), Dyadic(1, 1)),)),
        lambda: IntervalUnion("open", ((Dyadic(0, 0), Dyadic(1, 1)),)),
        "IntervalUnion(kind='closed', parts=((Dyadic(num=0, exp=0), Dyadic(num=1, exp=1)),))",
    ),
    SeqDiagram: (
        lambda: SeqDiagram(((0,), (0, 1)), ((0, 0),)),
        lambda: SeqDiagram(((0,),), ()),
        "SeqDiagram(levels=((0,), (0, 1)), transitions=((0, 0),))",
    ),
    CountablePresentation: (
        lambda: CountablePresentation((And(Gen("g0"), Gen("g1")),)),
        lambda: CountablePresentation(),
        "CountablePresentation(explicit_rels=(('g0', 'g1', '&'),), family=None)",
    ),
    RelGraph: (
        lambda: interval_graph(1),
        lambda: RelGraph((0, 1), ((0,), (1,))),
        "RelGraph(vertices=(0, 1), adjacent=((0, 1), (0, 1)))",
    ),
    RelGraphTower: (
        lambda: RelGraphTower((interval_graph(0), interval_graph(1)), ((0, 0),)),
        lambda: RelGraphTower((interval_graph(0),), ()),
        "RelGraphTower(levels=(RelGraph(vertices=(0,), adjacent=((0,),)), "
        "RelGraph(vertices=(0, 1), adjacent=((0, 1), (0, 1)))), transitions=((0, 0),))",
    ),
    IntMatrix: (
        lambda: IntMatrix(1, 2, (((0, -1), (1, 1)),)),
        lambda: IntMatrix(1, 2, (((0, 1), (1, -1)),)),
        "IntMatrix(nrows=1, ncols=2, rows=(((0, -1), (1, 1)),))",
    ),
    Incidence: (
        lambda: Incidence(3, (0, 1), (1, 2)),
        lambda: Incidence(3, (0, 0), (1, 2)),
        "Incidence(ncols=3, tails=(0, 1), heads=(1, 2))",
    ),
    AbInvariants: (lambda: AbInvariants(1, (2, 4)), lambda: AbInvariants(1, (4,)), "AbInvariants(rank=1, torsion=(2, 4))"),
    ChainComplexZ: (
        lambda: ChainComplexZ(D0, IntMatrix(0, 1, ()), AUG0),
        lambda: ChainComplexZ(D0, D1, IntMatrix(2, 1, (((0, 1),), ((0, 1),)))),
        "ChainComplexZ(d0=IntMatrix(nrows=1, ncols=2, rows=(((0, -1), (1, 1)),)), "
        "d1=IntMatrix(nrows=0, ncols=1, rows=()), aug=IntMatrix(nrows=2, ncols=1, rows=((), ())))",
    ),
    HomologyResult: (
        lambda: HomologyResult(Z1, Z0, (True, True)),
        lambda: HomologyResult(Z1, Z1, (True, False)),
        "HomologyResult(h0=AbInvariants(rank=1, torsion=()), h1=AbInvariants(rank=0, torsion=()), "
        "exact_at=(True, True))",
    ),
    LevelCohomology: (
        lambda: LevelCohomology(0, (1, 1, 1), Z1, Z0, (True, True, True)),
        lambda: LevelCohomology(1, (1, 1, 1), Z1, Z0, (True, True, True)),
        "LevelCohomology(level=0, dims=(1, 1, 1), h0=AbInvariants(rank=1, torsion=()), "
        "h1=AbInvariants(rank=0, torsion=()), exact_at=(True, True, True))",
    ),
    StabilizationReport: (
        lambda: StabilizationReport((LEVEL,), (), ()),
        lambda: StabilizationReport((), (), ()),
        "StabilizationReport(levels=(LevelCohomology(level=0, dims=(1, 1, 1), h0=AbInvariants(rank=1, torsion=()), "
        "h1=AbInvariants(rank=0, torsion=()), exact_at=(True, True, True)),), h0_iso=(), h1_iso=())",
    ),
}
# term shape -> (a fresh sample, a term of that shape with one part changed, its repr)
TERMS = {
    "Zero": (lambda: parse_term("0"), lambda: ONE, "('0',)"),
    "One": (lambda: parse_term("1"), lambda: ZERO, "('1',)"),
    "Gen": (lambda: Gen("g0"), lambda: Gen("g1"), "('g0',)"),
    "Not": (lambda: Not(Gen("g0")), lambda: Not(Gen("g1")), "('g0', '~')"),
    "And": (lambda: And(Gen("a"), Or(Gen("b"), ONE)), lambda: And(Gen("a"), Gen("b")), "('a', 'b', '1', '|', '&')"),
    "Or": (lambda: Or(Gen("a"), Not(ZERO)), lambda: Or(Gen("b"), Not(ZERO)), "('a', '0', '~', '|')"),
}
CLASSES = list(SAMPLES)
KINDS = [*CLASSES, *TERMS]


def _sample(kind):
    """The samples of a record class or a term shape, and the type of each."""
    return (*TERMS[kind], tuple) if kind in TERMS else (*SAMPLES[kind], kind)


def _fields(kind) -> list[str]:
    """A record's fields; a term has none, not even a tree node's."""
    return ["name", "arg", "left", "right"] if kind in TERMS else list(inspect.signature(kind).parameters)


def test_every_record_class_is_sampled():
    records = {
        obj
        for module in (terms, boolalg, profinite, interval, zhomology)
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and "__match_args__" in vars(obj)
    }
    # with the oracle of the graph-tower checks, which lives in the tests
    assert records | {RelGraphTower} == set(CLASSES) and len(CLASSES) == 21


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError as e:
        return str(e)


@pytest.mark.parametrize("cls", KINDS, ids=lambda k: getattr(k, "__name__", k))
class TestRecord:
    def test_fresh_samples_are_equal(self, cls):
        make, other, _, kind = _sample(cls)
        a, b = make(), make()
        assert type(a) is kind and a is not b
        assert a == b and not a != b
        assert a != other() and not a == other()

    def test_unequal_to_other_classes(self, cls):
        a = _sample(cls)[0]()
        for k in KINDS:
            if k != cls:
                assert a != _sample(k)[0]()
        assert a != ()
        assert a != object()

    def test_hash_follows_equality(self, cls):
        make = _sample(cls)[0]
        assert _hash_or_error(make()) == _hash_or_error(make())

    def test_frozen(self, cls):
        a = _sample(cls)[0]()
        before = repr(a)
        for name in _fields(cls):
            with pytest.raises(AttributeError):
                setattr(a, name, 1)
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        with pytest.raises(AttributeError):
            del a.extra
        with pytest.raises(TypeError):
            a[0] = 1
        assert repr(a) == before

    def test_repr(self, cls):
        make, _, rep, _ = _sample(cls)
        assert repr(make()) == rep

    @pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
    def test_round_trip(self, cls, how):
        a = _sample(cls)[0]()
        b = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda x: pickle.loads(pickle.dumps(x))}[how](a)
        assert type(b) is type(a) and b == a and repr(b) == repr(a)


@pytest.mark.parametrize("cls", TERMS)
def test_term_nodes_have_no_dict(cls):
    # a term of each shape is a bare tuple of str tokens
    a = TERMS[cls][0]()
    assert type(a) is tuple and all(type(x) is str for x in a)
    assert not hasattr(a, "__dict__")


def test_term_nodes_compare_by_preorder_across_classes():
    # terms compare as their token tuples, whichever constructor built them
    assert Gen("g0") == parse_term("g0") == ("g0",) and hash(Gen("g0")) == hash(parse_term("g0"))
    assert And(Gen("a"), Gen("b")) != Or(Gen("a"), Gen("b"))
    assert Not(Gen("a")) != Gen("a") and ZERO != ONE
    assert meet([Gen("a"), Gen("b")]) == And(Gen("a"), Gen("b")) and Gen("a") != "a"


def test_records_differ_from_their_field_tuples():
    assert Dyadic(1, 1) != (1, 1)
    assert HomologyResult(Z1, Z0, (True,)) != (Z1, Z0, (True,))


def test_defaults_and_keywords():
    assert AbInvariants(1).torsion == ()
    assert CountablePresentation().explicit_rels == () and CountablePresentation().family is None
    assert Dyadic(num=12, exp=4) == Dyadic(3, 2)
    assert AbInvariants(rank=2, torsion=(3,)) == AbInvariants(2, (3,))
    with pytest.raises(TypeError):
        Dyadic(1)
    with pytest.raises(TypeError):
        Dyadic(1, 2, 3)
    with pytest.raises(TypeError):
        Gen()


def test_normalized_fields():
    d = Dyadic(12, 4)
    assert (d.num, d.exp) == (3, 2) and hash(d) == hash(Dyadic(3, 2))


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: Presentation(("a", "a"), ()), DuplicateGenerator),
        (lambda: Presentation(("a",), (Gen("b"),)), UnknownGenerator),
        pytest.param(lambda: Dyadic(1, -1), InvariantViolated, id="Dyadic-negative-exponent"),
        pytest.param(lambda: BitWord((0, 2)), InvariantViolated, id="BitWord-bit-not-0-or-1"),
        pytest.param(lambda: IntervalUnion("half", ()), InvariantViolated, id="IntervalUnion-bad-kind"),
        pytest.param(
            lambda: IntervalUnion("closed", ((Dyadic(1, 0), Dyadic(0, 0)),)),
            InvariantViolated,
            id="IntervalUnion-lo-above-hi",
        ),
        pytest.param(
            lambda: IntervalUnion("open", ((Dyadic(0, 0), Dyadic(0, 0)),)),
            InvariantViolated,
            id="IntervalUnion-empty-open-part",
        ),
        pytest.param(
            lambda: IntervalUnion("closed", ((Dyadic(0, 0), Dyadic(1, 1)), (Dyadic(1, 1), Dyadic(1, 0)))),
            InvariantViolated,
            id="IntervalUnion-parts-overlap",
        ),
        (lambda: SeqDiagram(((0,), (0,)), ()), InvariantViolated),
        (lambda: SeqDiagram(((0,), (0, 1)), ((0,),)), InvariantViolated),
        (lambda: SeqDiagram(((0,), (0, 1)), ((0, 1),)), InvariantViolated),
        (lambda: SeqDiagram(((0,), (0, 1)), ((0, -1),)), InvariantViolated),
        pytest.param(lambda: RelGraph((0, 0), ((0,), (1,))), InvariantViolated, id="RelGraph-repeated-vertex"),
        pytest.param(lambda: RelGraph((0, 1), ((0,),)), InvariantViolated, id="RelGraph-list-count"),
        pytest.param(lambda: RelGraph((0, 1), ((0, 1), (1,))), InvariantViolated, id="RelGraph-not-symmetric"),
        pytest.param(lambda: RelGraph((0, 1), ((1,), (0, 1))), InvariantViolated, id="RelGraph-not-reflexive"),
        # stabilization_report's checks of a two-level graph tower, under the ids of the
        # tower record that made them before the walk did
        (lambda: stabilization_report((interval_graph(0), interval_graph(1)), ()), InvariantViolated),
        pytest.param(
            lambda: stabilization_report((interval_graph(0), interval_graph(1)), ((0,),)),
            InvariantViolated,
            id="RelGraphTower-transition-length",
        ),
        pytest.param(
            lambda: stabilization_report((interval_graph(0), interval_graph(1)), ((0, 1),)),
            InvariantViolated,
            id="RelGraphTower-position-outside",
        ),
        (
            lambda: stabilization_report((RelGraph((0, 1), ((0,), (1,))), interval_graph(1)), ((0, 1),)),
            RelationNotPreserved,
        ),
        (lambda: IntMatrix(2, 2, ()), InvariantViolated),
        (lambda: IntMatrix(1, 2, (((1, 1), (0, 1)),)), InvariantViolated),
        (lambda: IntMatrix(1, 2, (((0, 0),),)), InvariantViolated),
        (lambda: IntMatrix(1, 2, (((2, 1),),)), InvariantViolated),
        (lambda: AbInvariants(0, (1,)), InvariantViolated),
        (lambda: AbInvariants(0, (2, 3)), InvariantViolated),
        (lambda: ChainComplexZ(D0, IntMatrix(0, 2, ()), AUG0), InvariantViolated),
        (lambda: ChainComplexZ(D0, IntMatrix(1, 1, (((0, 1),),)), AUG0), InvariantViolated),
        (lambda: ChainComplexZ(D0, D1, IntMatrix(1, 1, (((0, 1),),))), InvariantViolated),
        (lambda: ChainComplexZ(D0, D1, IntMatrix(2, 1, (((0, 1),), ()))), InvariantViolated),
        pytest.param(lambda: Incidence(3, (1,), (1,)), InvariantViolated, id="Incidence-tail-not-below-head"),
        pytest.param(lambda: Incidence(3, (2,), (1,)), InvariantViolated, id="Incidence-tail-above-head"),
        pytest.param(lambda: Incidence(3, (0, 1), (1, 3)), InvariantViolated, id="Incidence-head-past-columns"),
        pytest.param(lambda: Incidence(3, (-1,), (1,)), InvariantViolated, id="Incidence-negative-tail"),
        pytest.param(lambda: Incidence(3, (0, 1), (1,)), InvariantViolated, id="Incidence-unequal-lengths"),
        pytest.param(lambda: Incidence(0, (0,), (1,)), InvariantViolated, id="Incidence-edge-without-vertices"),
    ],
)
def test_post_init_rejections(make, error):
    with pytest.raises(error):
        make()


def test_cached_properties():
    a = spectrum(binfty(2))
    assert a.points == ["00", "01", "10"] and a.points is a.points
    m = Morphism(P2, P2, {"g0": Gen("g1"), "g1": Gen("g0")})
    assert m.image_tables == {"g0": 0b010, "g1": 0b100} and m.image_tables is m.image_tables
    d0 = graph_cech_complex(interval_graph(2)).d0
    comp, tree, cotree = d0._forest
    assert comp == [0, 0, 0, 0] and len(tree) == 3 and cotree == [] and d0._forest is d0._forest
    assert d0.rows == incidence_matrix(d0).rows and d0.rows is d0.rows
    # the same map as an IntMatrix is reduced by Smith, once
    m = incidence_matrix(d0)
    assert "_reduction" not in vars(m)
    assert snf_invariants(m) == snf_invariants(d0) == [1, 1, 1]
    assert "_reduction" in vars(m) and m._reduction is m._reduction


def test_post_init_is_looked_up_when_called(monkeypatch):
    """A wrapper set on the class after import, as a tracer sets one, runs."""
    calls = []
    original = IntMatrix.__post_init__

    def counted(self):
        calls.append(self.shape)
        return original(self)

    monkeypatch.setattr(IntMatrix, "__post_init__", counted)
    IntMatrix(1, 2, (((0, 1),),))
    D0 @ IntMatrix(2, 1, (((0, 1),), ((0, 1),)))
    assert calls == [(1, 2), (2, 1), (1, 1)]


@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
def test_round_trips_of_parsed_terms_and_matrices(how):
    for a in (
        parse_term("~(a | b) & c | ~~0 & (d | 1)"),
        graph_cech_complex(interval_graph(2)).d0,
        AbInvariants(2, (2, 6)),
        Dyadic(5, 3),
        Presentation(("a", "b"), (parse_term("a & ~b"),)),
    ):
        b = how(a)
        assert b == a and type(b) is type(a) and hash(b) == hash(a)
    assert how(parse_term("a & b")) == And(Gen("a"), Gen("b")) == ("a", "b", "&")


"""What the immutable value types promise, whatever builds them.

No attribute of a value type can be set or deleted, nor an entry of an
expansion's support or a grid's bounds; the sixteen Frozen types refuse
with dataclasses.FrozenInstanceError and its two messages, have no
__dict__, and copy, and all but the two holding a read-only mapping
deep-copy and pickle; RationalFunction and FourierExpansion are not hashable;
RationalFunction's equality cancels factors rather than
comparing factor lists; views are built on each read; the reprs keep their text; and
LaurentPoly.monomial builds exactly what the public constructor builds.
A class that checks its input in its own __init__ has a _trusted constructor
that rebuilds any of its values from the fields; a generated __init__ refuses
its arguments as a dataclass's does; and only errors.py, where Frozen
generates both, writes a field past the refusing __setattr__.
"""

import ast
import copy
import dataclasses
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import sympl
from sympl.ehw import EhwProfile, ehw_normalize
from sympl.embeddings import CharacterDatum, klingen_embedding_datum
from sympl.errors import DomainError, ExponentTooLarge
from sympl.fourier import FourierExpansion, PdGrid, SymMatrix, build_pd_grid, format_expansion, rigidity_check
from sympl.laurent import EXPONENT_BOUND, LaurentPoly
from sympl.lfactors import RationalFunction, SatakeDatum, xi
from sympl.orbitclassify import SurjectivityVerdict, classify_levels, decomposition_report
from sympl.weights import Weight
from sympl.weyl import WeylElement, infchar_canonical

P = LaurentPoly.parse

# the sixteen Frozen value types, each with its declared fields
FROZEN = [
    (Weight(((3, 2),)), ("doubled",)),
    (WeylElement((2, 1), (1, -1)), ("perm", "signs")),
    (infchar_canonical(Weight(((3, 2),))), ("canonical",)),
    (CharacterDatum(1, Fraction(5, 2)), ("parity", "exponent")),
    (klingen_embedding_datum((7, 5, 5), 2), ("n", "i", "character", "inner_weight")),
    (ehw_normalize((4, 3, 3)), ("base", "p", "q", "r")),
    (classify_levels((5,), 2, 1), ("n", "i", "inner", "x_max", "classes", "y", "bijective")),
    (
        decomposition_report(Weight(((12, 12),)), 1),
        ("n", "d", "i", "weight", "hypotheses", "parity_class", "exponent", "inner_weight", "conclusion",
         "assumption"),
    ),
    (SurjectivityVerdict.of(()), ("tag", "failed_conditions")),
    (SatakeDatum((Fraction(2), "a"), Fraction(-1, 5)), ("params", "character")),
    (P("1/2*x - y^-1"), ("gens", "den", "_packed", "_reach")),
    (RationalFunction((P("1 - T^2"),), (P("1 - T"),)), ("num_factors", "den_factors")),
    (FourierExpansion(2, 3, {((1, 0), (0, 1)): 2}), ("n", "k", "support")),
    (SymMatrix.of([[1, 0], [0, 2]]), ("numerators", "den")),
    (build_pd_grid(1, 1, 1).points, ("n", "boxes")),
    (
        build_pd_grid(1, 1, 1),
        ("n", "d", "bounds", "points", "diagonal_offsets", "nominal_offsets", "deviation",
         "deviation_witnesses", "bad_point_count"),
    ),
]


# the classes whose own __init__ checks its input; every other one has the generated __init__
CHECKED = (Weight, WeylElement, CharacterDatum, SatakeDatum, LaurentPoly, RationalFunction, FourierExpansion,
           SymMatrix)


def _ids(values):
    return [type(v).__name__ for v, _ in values]


@pytest.mark.parametrize(("value", "fields"), FROZEN, ids=_ids(FROZEN))
def test_attributes_cannot_be_set(value, fields):
    before = repr(value)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.extra = None
    assert repr(value) == before and not hasattr(value, "extra")


def test_unhashable_values():
    for value in (RationalFunction.one(), RationalFunction.from_poly(P("1 - T")), FourierExpansion(1, 0)):
        with pytest.raises(TypeError):
            hash(value)


def test_rational_function_equality_cancels():
    a, b = P("1 - T"), P("1 + X*T")
    assert RationalFunction((a, b), ()) == RationalFunction((b, a), ())
    assert RationalFunction((a, b), (a,)) == RationalFunction.from_poly(b)
    assert RationalFunction((P("1 - T^2"),), (P("1 - T"),)) == RationalFunction.from_poly(P("1 + T"))
    assert RationalFunction((a,), (a,)) == RationalFunction.one()
    assert RationalFunction((a,), ()) != RationalFunction((b,), ())
    assert RationalFunction.one() != 1 and RationalFunction.one() != "1"


def test_reprs_keep_their_text():
    assert repr(SatakeDatum.symbolic(2)) == "SatakeDatum(params=('b1', 'b2'), character='X')"
    assert repr(SatakeDatum((Fraction(2), "a"), Fraction(-1, 5))) == (
        "SatakeDatum(params=(Fraction(2, 1), 'a'), character=Fraction(-1, 5))"
    )
    assert repr(FourierExpansion(2, 3, {((1, 0), (0, 1)): 2, ((0, 0), (0, 1)): 0})) == (
        "FourierExpansion(n=2, k=3, 1 coefficients)"
    )
    assert repr(FourierExpansion(1, 0)) == "FourierExpansion(n=1, k=0, 0 coefficients)"
    assert repr(RationalFunction((P("1 + T"),), (P("1 - T"), P("1 - X")))) == (
        "RationalFunction((1 + T) / (1 - T)*(1 - X))"
    )
    assert repr(RationalFunction.one()) == "RationalFunction(1)"


def test_fourier_expansions_compare_by_value():
    h = SymMatrix.of([[1, 0], [0, 2]])
    f = FourierExpansion(2, 4, {h: 3})
    assert f == FourierExpansion(2, 4, {((1, 0), (0, 2)): Fraction(3)})
    assert f != FourierExpansion(2, 5, {h: 3}) and f != FourierExpansion(2, 4, {h: 2})
    assert f != FourierExpansion(2, 4) and f != "f" and f != {h: 3}
    assert f.coefficient(h) == f.coefficient([[1, 0], [0, 2]]) == 3
    assert f.coefficient(SymMatrix.identity(2)) == 0


def test_mappings_inside_frozen_values_are_read_only():
    # a caller could rewrite them in place: the expansion then counted 2
    # coefficients and printed a "2 : 0" line its constructor would have dropped
    f = FourierExpansion(1, 2, {SymMatrix.of([[1]]): 3})
    with pytest.raises(TypeError):
        f.support[SymMatrix.of([[2]])] = 0
    assert repr(f) == "FourierExpansion(n=1, k=2, 1 coefficients)"
    assert format_expansion(f).splitlines()[1:] == ["1 : 3"]
    grid = build_pd_grid(1, 1, 1)
    with pytest.raises(TypeError):
        grid.bounds[(1, 1, 1)] = 50
    assert dict(grid.bounds) == {(1, 1, 1): 1}
    # read-only mappings compare by content and stay unhashable
    assert f == FourierExpansion(1, 2, {((1,),): 3}) and grid == build_pd_grid(1, 1, 1)
    assert f != FourierExpansion(1, 2, {((1,),): 4}) and grid != build_pd_grid(1, 1, 2)
    for value in (f, grid):
        with pytest.raises(TypeError):
            hash(value)


def test_support_keys_are_read_once():
    h = SymMatrix.of([[1, 1], [1, 1]])
    assert SymMatrix.of(h) is h
    assert FourierExpansion(2, 0, {h: 1}).support == {h: 1}
    w = Weight.single((5, 5))
    for support in ([h], [((1, 1), (1, 1))], FourierExpansion(2, 0, {h: 1})):
        assert rigidity_check(w, support, 1)
    assert not rigidity_check(Weight.of((5, 4), (5, 3)), [h], 1)


def test_satake_data_compare_by_value():
    d = SatakeDatum.symbolic(2)
    assert d == SatakeDatum(("b1", "b2")) and hash(d) == hash(SatakeDatum(("b1", "b2")))
    assert SatakeDatum((2,), 3) == SatakeDatum((Fraction(2),), Fraction(3))
    assert d != SatakeDatum(("b1", "b2"), 1) and d != SatakeDatum(("b2", "b1"))
    assert len({d, SatakeDatum.symbolic(2), SatakeDatum()}) == 2


def test_assignment_raises_the_dataclass_error():
    for value, fields in FROZEN:
        for name in (*fields, "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError) as raised:
                setattr(value, name, None)
            assert type(raised.value) is dataclasses.FrozenInstanceError
            assert str(raised.value) == f"cannot assign to field {name!r}"
            with pytest.raises(dataclasses.FrozenInstanceError) as raised:
                delattr(value, name)
            assert str(raised.value) == f"cannot delete field {name!r}"
        assert type(value)._fields == fields
        assert not hasattr(value, "__dict__")


XI = (xi(2, SatakeDatum.symbolic(1)), ("num_factors", "den_factors"))


@pytest.mark.parametrize(("value", "fields"), [*FROZEN, XI], ids=[*_ids(FROZEN), "xi"])
def test_values_copy_and_pickle(value, fields):
    # a read-only mapping copies only shallowly, since it cannot be pickled
    copies = [copy.copy(value)]
    if isinstance(value, (FourierExpansion, PdGrid)):
        with pytest.raises(TypeError):
            pickle.dumps(value)
    else:
        copies += [copy.deepcopy(value), pickle.loads(pickle.dumps(value))]
    for other in copies:
        assert type(other) is type(value) and other == value and repr(other) == repr(value)
        assert all(getattr(other, name) == getattr(value, name) for name in fields)


def test_views_are_built_on_each_read():
    # a view is a new object, so writing into one changes no value
    p = P("1 - T")
    p.terms[(5,)] = 7
    p.numerators[(5,)] = 7
    assert p.terms == {(0,): 1, (1,): -1} and p.numerators == {(0,): 1, (1,): -1}
    w, h = Weight(((3, 2),)), SymMatrix.of([[1, 2], [2, 1]])
    assert w.rows == w.rows and w.rows is not w.rows
    assert h.entries == h.entries and h.entries is not h.entries


def test_frozen_init_takes_every_field_once():
    # by position or by name, refused as a dataclass's generated __init__ refuses
    assert WeylElement(perm=(2, 1), signs=(1, -1)) == WeylElement((2, 1), signs=(1, -1)) == FROZEN[1][0]
    for args, kwargs in [(((2, 1),), {}), (((2, 1), (1, -1), 0), {}), (((2, 1),), {"perm": (2, 1)}),
                         (((2, 1),), {"sign": (1, -1)}), ((), {"signs": (1, -1)})]:
        with pytest.raises(TypeError, match=r"^WeylElement\.__init__\(\) "):
            WeylElement(*args, **kwargs)
    # a generated __init__ gives a dataclass's messages, and names itself
    profile = FROZEN[5][0]
    assert EhwProfile(profile.base, profile.p, r=profile.r, q=profile.q) == profile
    for args, kwargs, message in [
        ((1,), {}, "missing 3 required positional arguments: 'p', 'q', and 'r'"),
        ((1, 2, 3), {}, "missing 1 required positional argument: 'r'"),
        ((1, 2, 3, 4, 5), {}, "takes 5 positional arguments but 6 were given"),
        ((1, 2, 3), {"base": 1, "r": 4}, "got multiple values for argument 'base'"),
        ((1, 2, 3, 4), {"s": 5}, "got an unexpected keyword argument 's'"),
    ]:
        with pytest.raises(TypeError) as raised:
            EhwProfile(*args, **kwargs)
        assert str(raised.value) == f"EhwProfile.__init__() {message}"


@pytest.mark.parametrize(("value", "fields"), FROZEN, ids=_ids(FROZEN))
def test_trusted_rebuilds_a_checked_value(value, fields):
    cls = type(value)
    if cls not in CHECKED:
        assert not hasattr(cls, "_trusted") and not hasattr(cls, "_set")
        return
    other = cls._trusted(*(getattr(value, name) for name in fields))
    assert type(other) is cls and other == value and repr(other) == repr(value)
    assert all(getattr(other, name) is getattr(value, name) for name in fields)
    for name in (*fields, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(other, name, None)


def test_only_errors_writes_past_the_refusing_setattr():
    # Frozen generates every constructor that sets a field, so no other module names object.__setattr__ or __new__
    modules, found = sorted(Path(sympl.__file__).resolve().parent.glob("*.py")), set()
    assert len(modules) >= 14  # every module of the package, __init__ included
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("__setattr__", "__new__")
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                found.add((path.stem, node.attr))
    assert sorted(found) == [("errors", "__new__"), ("errors", "__setattr__")]


def test_only_laurent_reads_its_packed_key_layout():
    # the packed key format is laurent's own: no other module imports its key helpers or calls LaurentPoly._trusted
    private, found = {"_origin", "_pack", "_repack"}, set()
    for path in sorted(Path(sympl.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ImportFrom):
                found.update((path.stem, alias.name) for alias in node.names if alias.name in private)
            elif isinstance(node, ast.Attribute) and (node.attr in private or node.attr == "_trusted" and (
                    isinstance(node.value, ast.Name) and node.value.id == "LaurentPoly")):
                found.add((path.stem, node.attr))
    assert sorted(found) == [("laurent", "_trusted")]


def _outcome(build):
    """A polynomial's canonical form and bound, or the error it raised."""
    try:
        p = build()
    except (TypeError, ValueError, DomainError) as exc:
        return type(exc), str(exc)
    return p.gens, p.den, p.key(), p._reach, str(p)


B = EXPONENT_BOUND


@pytest.mark.parametrize(("coeff", "exps"), [
    (3, None),
    (Fraction(-1, 2), {"T": 2, "Q": -1}),
    (5, {"y": 1, "x": -2, "z": 0}),
    (1, {"x": 0}),
    (0, {"x": 3}),
    (Fraction(0), {"x": Fraction(5, 2)}),
    ("0", {"x": B + 1}),
    (1, {"x": Fraction(5, 2)}),
    (1, {"x": 2.5}),
    (1, {"x": "3/2", "y": 2.5}),
    (1, {"x": True}),
    (True, {"x": 1}),
    (2.5, {"x": 1}),
    (1, {"x": B, "y": -B}),
    (Fraction(7, 3), {"x": -B}),
    (1, {"x": B + 1}),
    (1, {"x": -B - 1, "y": B + 1}),
    (1, {"x": B + 2, "y": -B - 1}),
    (1, [("x", 2), ("y", 3)]),
])
def test_monomial_matches_the_constructor(coeff, exps):
    cleaned = dict(exps or {})
    want = _outcome(lambda: LaurentPoly(tuple(cleaned), {tuple(cleaned.values()): coeff}))
    assert _outcome(lambda: LaurentPoly.monomial(coeff, exps)) == want


def test_monomial_edges():
    assert LaurentPoly.monomial(0, {"x": 3}) == LaurentPoly.zero()
    assert LaurentPoly.monomial(1, {"x": B}).degree("x") == B
    with pytest.raises(ExponentTooLarge, match=f"exponent {-B - 1} exceeds the bound {B}"):
        LaurentPoly.monomial(1, {"x": -B - 1, "y": B + 1})
    with pytest.raises(TypeError, match="booleans are not scalars"):
        LaurentPoly.monomial(1, {"x": True})
    with pytest.raises(ValueError, match="not an integer: 5/2"):
        LaurentPoly.monomial(1, {"x": Fraction(5, 2)})

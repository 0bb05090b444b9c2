"""The lazily loaded package surface and the frozen record classes."""

import ast
import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import knotalex
from knotalex import alexander, cli, family
from knotalex._record import record
from knotalex.family import FamilyParams, SurgeryClassification, SurgerySlope, Verdict
from knotalex.words import Presentation, parse_presentation


@record
class Point:
    x: int
    y: int = 0


def _public_functions():
    """The public functions and the package's own methods and property getters."""
    for name in knotalex.__all__:
        value = getattr(knotalex, name)
        if not inspect.isclass(value):
            if callable(value):
                yield value
            continue
        for cls in value.__mro__:
            if not cls.__module__.startswith("knotalex."):
                continue
            for member in vars(cls).values():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield member


def _public_signatures():
    """Signatures of the public functions and of the package's own methods."""
    return map(inspect.signature, _public_functions())


class TestLazySurface:
    def test_every_name_is_its_home_modules_object(self):
        for name in knotalex.__all__:
            value = getattr(knotalex, name)
            if name == "errors":
                assert value is sys.modules["knotalex.errors"]
                continue
            home = sys.modules[value.__module__]
            assert home.__name__.startswith("knotalex."), name
            assert getattr(home, name) is value, name

    def test_alexander_reexports_the_closed_form(self):
        assert alexander.closed_form_alexander is family.closed_form_alexander

    def test_dir_lists_all(self):
        assert set(knotalex.__all__) <= set(dir(knotalex))

    def test_star_import(self):
        namespace = {}
        exec("from knotalex import *", namespace)
        for name in knotalex.__all__:
            assert namespace[name] is getattr(knotalex, name)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            knotalex.nope

    def test_every_default_is_data(self):
        # no public callable takes a setting: each default is a value of its
        # data (an empty word, a unit coefficient, an integer slope, ...)
        data_defaults = {
            ("coeffs", ()),
            ("syllables", ()),
            ("coeff", 1),
            ("exponent", 1),
            ("q", 1),
            ("meridian", None),
        }
        found = set()
        for signature in _public_signatures():
            for param in signature.parameters.values():
                if param.default is not param.empty:
                    found.add((param.name, param.default))
        assert found == data_defaults

    def test_annotations_name_what_they_import(self):
        # every annotation resolves in its module's namespace: a type that a
        # function imports only when it runs is named in its docstring instead
        functions = list(_public_functions())
        assert len(functions) > 100
        for function in functions:
            typing.get_type_hints(function)
        assert typing.get_type_hints(cli._poly_output) == {
            "as_json": bool,
            "return": type(None),
        }
        assert typing.get_type_hints(family._closed_form_runs) == {
            "n": int,
            "m": int,
            "return": list[tuple[int, int, list[int]]],
        }

    def test_import_loads_no_submodule(self):
        code = "\n".join(
            [
                "import sys",
                "import knotalex",
                "assert not [m for m in sys.modules if m.startswith('knotalex.')]",
                "assert knotalex.rootcert.DEFAULT_RESIDUAL_BOUND == 1e-8",
                "assert knotalex.FamilyParams(2, 1).n == 2",
                "assert 'knotalex.foxcalc' not in sys.modules",
            ]
        )
        env = dict(os.environ, PYTHONPATH=str(Path(knotalex.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert done.returncode == 0, done.stderr


class TestRecords:
    def test_repr(self):
        assert repr(FamilyParams(2, 1)) == "FamilyParams(n=2, m=1)"
        assert repr(SurgerySlope(7)) == "SurgerySlope(p=7, q=1)"
        assert repr(parse_presentation("gens: x y\nrel: x y x (y x y)^-1\n")) == (
            "Presentation(generators=('x', 'y'), "
            "relators=(Word('x y x y^-1 x^-1 y^-1'),), meridian=None)"
        )
        assert repr(SurgeryClassification(Verdict.NO_CONCLUSION, 5)) == (
            "SurgeryClassification(verdict=<Verdict.NO_CONCLUSION: 'NoConclusion'>, "
            "slope_bound=5)"
        )

    def test_equality_and_hash(self):
        assert FamilyParams(2, 1) == FamilyParams(n=2, m=1)
        assert hash(FamilyParams(2, 1)) == hash(FamilyParams(2, 1)) == hash((2, 1))
        assert FamilyParams(2, 1) != FamilyParams(1, 2)
        assert len({FamilyParams(2, 1), FamilyParams(2, 1), FamilyParams(1, 2)}) == 2
        # equal fields, different classes
        assert FamilyParams(2, 1) != SurgerySlope(2, 1)
        assert FamilyParams(2, 1) != (2, 1)

    def test_frozen(self):
        params = FamilyParams(2, 1)
        with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
            params.n = 3
        with pytest.raises(AttributeError, match="cannot delete field 'm'"):
            del params.m
        with pytest.raises(AttributeError):
            params.extra = 0
        assert params == FamilyParams(2, 1)

    def test_defaults_and_keywords(self):
        assert SurgerySlope(7) == SurgerySlope(p=7, q=1) == SurgerySlope(q=1, p=7)
        plain = Presentation(("x",), ())
        assert plain.meridian is None
        assert Presentation(("x",), (), meridian="x").meridian == "x"

    @pytest.mark.parametrize(
        "args, kwargs",
        [((1,), {}), ((1, 2, 3), {}), ((1, 2), {"k": 3}), ((1,), {"n": 2}), ((), {})],
        ids=["missing", "extra", "unknown-keyword", "duplicate", "none"],
    )
    def test_bad_arguments(self, args, kwargs):
        with pytest.raises(TypeError, match=r"FamilyParams\.__init__\(\)"):
            FamilyParams(*args, **kwargs)

    def test_post_init(self):
        with pytest.raises(ValueError):
            FamilyParams(0, 1)
        with pytest.raises(TypeError):
            FamilyParams(1.0, 1)
        assert SurgerySlope(-10, -4) == SurgerySlope(5, 2)
        assert Presentation(["x"], []).generators == ("x",)

    def test_match(self):
        match FamilyParams(2, 1):
            case FamilyParams(n, m=1):
                assert n == 2
            case _:
                pytest.fail("class pattern did not match")
        assert FamilyParams.__match_args__ == ("n", "m")

    def test_plain_class(self):
        assert Point(1) == Point(x=1, y=0)
        assert repr(Point(1, 2)) == "Point(x=1, y=2)"
        assert not hasattr(Point(1), "__dataclass_fields__")


def _names_int(node) -> bool:
    if isinstance(node, ast.Tuple):
        return any(_names_int(element) for element in node.elts)
    return isinstance(node, ast.Name) and node.id == "int"


def test_integer_checks_go_through_is_integer():
    # isinstance(x, int) also accepts bools; every integer input shares
    # errors._is_integer instead, so no module may call it on int itself
    package = Path(knotalex.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and _names_int(node.args[1])
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []

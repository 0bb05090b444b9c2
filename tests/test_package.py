"""The lazily loaded package surface and the frozen record classes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import knotalex
from knotalex import alexander, family
from knotalex._record import record
from knotalex.family import FamilyParams, SurgeryClassification, SurgerySlope, Verdict
from knotalex.words import Presentation, parse_presentation


@record
class Point:
    x: int
    y: int = 0


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
        assert alexander._closed_form_coefficients is family._closed_form_coefficients

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
        assert repr(SurgeryClassification(Verdict.NO_CONCLUSION, 5, True)) == (
            "SurgeryClassification(verdict=<Verdict.NO_CONCLUSION: 'NoConclusion'>, "
            "slope_bound=5, near_zero_note=True)"
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

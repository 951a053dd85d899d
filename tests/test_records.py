"""The record types: fields, defaults, reprs and checked construction."""

import math

import pytest

from deformzeros.analytic import FunctionSpec, zeta_spec
from deformzeros.characters import (
    CatalogEntry,
    CharacterClassification,
    DirichletCharacter,
    classify,
    enumerate_characters,
)
from deformzeros.deformation import CoefficientStream, PairingReport, Trajectory
from deformzeros.errors import DomainError
from deformzeros.funceq import FunctionalEquation
from deformzeros.zerofind import BoxCountReport, Rect, ZeroRecord

_CHI = enumerate_characters(5)[2]
_ZERO = ZeroRecord(14.5, 0.5, 1e-12, 5e-10, "nontrivial")
_ZERO_REPR = "ZeroRecord(t=14.5, sigma=0.5, residual=1e-12, half_width=5e-10, kind='nontrivial')"
_CLS_REPR = ("CharacterClassification(parity=0, conductor=5, is_primitive=True, "
             "is_real=True, is_principal=False)")

# (type, fields, field defaults, an instance, its repr)
_RECORDS = [
    (FunctionSpec,
     ("name", "eval_fn", "pole", "trivial_modulus", "watch_modulus", "natural_fe", "coeff_bounds"),
     {"pole": None, "trivial_modulus": None, "watch_modulus": None, "natural_fe": None,
      "coeff_bounds": None},
     zeta_spec, "FunctionSpec(zeta)"),
    (DirichletCharacter, ("modulus", "label", "values", "exponents", "order"), {},
     lambda: _CHI, "chi(5.2)"),
    (CharacterClassification,
     ("parity", "conductor", "is_primitive", "is_real", "is_principal"), {},
     lambda: classify(_CHI), _CLS_REPR),
    (CatalogEntry, ("q", "character", "classification", "epsilon"), {},
     lambda: CatalogEntry(5, _CHI, classify(_CHI), 1 + 0j),
     f"CatalogEntry(q=5, character=chi(5.2), classification={_CLS_REPR}, epsilon=(1+0j))"),
    (FunctionalEquation, ("modulus", "kappa"), {},
     lambda: FunctionalEquation(5, 0), "FunctionalEquation(modulus=5, kappa=0)"),
    (Rect, ("sigma1", "sigma2", "t1", "t2"), {},
     lambda: Rect(-1.0, 2.0, 1.0, 30.0), "Rect(sigma1=-1.0, sigma2=2.0, t1=1.0, t2=30.0)"),
    (ZeroRecord, ("t", "sigma", "residual", "half_width", "kind"), {},
     lambda: _ZERO, _ZERO_REPR),
    (BoxCountReport,
     ("rectangle", "winding_count", "line_count", "boundary_min_modulus", "certified_margin"), {},
     lambda: BoxCountReport(Rect(-1.0, 2.0, 1.0, 30.0), 3, None, 0.5, 0.25),
     "BoxCountReport(rectangle=Rect(sigma1=-1.0, sigma2=2.0, t1=1.0, t2=30.0), "
     "winding_count=3, line_count=None, boundary_min_modulus=0.5, certified_margin=0.25)"),
    (Trajectory, ("samples", "abs_phi", "start_zero", "end_zero", "status", "reversals"), {},
     lambda: Trajectory(((0.0, 14.5), (1.0, 15.0)), (0.0, 0.0), _ZERO, None, "lost", 0),
     "Trajectory(samples=((0.0, 14.5), (1.0, 15.0)), abs_phi=(0.0, 0.0), "
     f"start_zero={_ZERO_REPR}, end_zero=None, status='lost', reversals=0)"),
    (PairingReport,
     ("interval", "extended", "pairs", "n0", "n1", "trajectories", "r_extrema"), {},
     lambda: PairingReport((1.0, 30.0), (1.0, 31.0), ((_ZERO, _ZERO),), 1, 1, (), ()),
     "PairingReport(interval=(1.0, 30.0), extended=(1.0, 31.0), "
     f"pairs=(({_ZERO_REPR}, {_ZERO_REPR}),), n0=1, n1=1, trajectories=(), r_extrema=())"),
    (CoefficientStream, ("q", "x", "y", "floats"), {},
     lambda: CoefficientStream(5, (1, 0), (0, -1), (1.0, -2.23606797749979)),
     "CoefficientStream(q=5, x=(1, 0), y=(0, -1), floats=(1.0, -2.23606797749979))"),
]


@pytest.mark.parametrize("cls, fields, defaults, make, text", _RECORDS,
                         ids=[r[0].__name__ for r in _RECORDS])
def test_record_fields_defaults_and_repr(cls, fields, defaults, make, text):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    x = make()
    assert type(x) is cls and repr(x) == text
    # a tuple with named fields and no per-instance dict
    assert not hasattr(x, "__dict__")
    assert type(x._replace()) is cls and x._replace() == x


@pytest.mark.parametrize(
    "make, change, message",
    [
        (lambda: Rect(-1, 2, 1, 30), {"t1": math.nan}, "need t1 < t2, got [nan, 30]"),
        (lambda: Rect(-1, 2, 1, 30), {"sigma2": -1}, "need sigma1 < sigma2, got [-1, -1]"),
        (lambda: FunctionalEquation(5, 0), {"kappa": 2}, "parity kappa must be 0 or 1, got 2"),
        (lambda: FunctionalEquation(5, 0), {"modulus": 0},
         "functional equation needs modulus >= 1, got 0"),
    ],
    ids=["rect_nan_t1", "rect_sigmas", "fe_kappa", "fe_modulus"],
)
def test_replace_runs_the_constructor_check(make, change, message):
    x = make()
    values = [change.get(name, v) for name, v in zip(x._fields, x)]
    for build in (lambda: x._replace(**change), lambda: type(x)._make(values)):
        with pytest.raises(DomainError) as exc:
            build()
        assert str(exc.value) == message

"""The package's record classes: construction, reads, immutability and
value equality, as callers and tests use them."""

import math

import numpy as np
import pytest

from harmonicspaces.errors import UnsupportedModel
from harmonicspaces.harmonic import BoundaryBehavior, BoundaryClassification, TableVerification
from harmonicspaces.numerics import Interval, QuadratureResult
from harmonicspaces.quotients import (
    AntipodalGroup,
    CPInvolutionGroup,
    GridClassification,
    InjectivityReport,
    KleinGroup,
    LensGroup,
    SelfCheckReport,
    TorusGroup,
)
from harmonicspaces.spaces import DensityProfile, Family, SpaceModel, complex_projective
from harmonicspaces.svgfig import SvgFigure
from harmonicspaces.topology import VolumeBoundReport
from harmonicspaces.verify import CheckResult

_HS4 = SpaceModel(Family.HYPERBOLIC_SPACE, 4)
_S4 = SpaceModel(Family.SPHERE, 4)

#: Each record class with field values by name, in field order.
RECORDS = [
    (Interval, {"lo": 0.25, "hi": 1.5, "open_ends": (True, False)}),
    (QuadratureResult, {"value": 1.5, "error_estimate": 1e-12, "evaluations": 45}),
    (
        DensityProfile,
        {"sine_exponent": 3, "cosine_exponent": 1, "curvature_sign": 1, "domain_end": math.pi / 2},
    ),
    (SpaceModel, {"family": Family.COMPLEX_PROJECTIVE, "dimension": 4, "projective_index": 2}),
    (
        BoundaryClassification,
        {"at_origin": BoundaryBehavior.DIVERGENT, "at_far_end": BoundaryBehavior.NO_BOUNDARY},
    ),
    (TableVerification, {"model_id": "S3", "max_ode_residual": 2e-9, "max_match_residual": 3e-11}),
    (TorusGroup, {}),
    (KleinGroup, {}),
    (AntipodalGroup, {"m": 3}),
    (LensGroup, {"k": 2}),
    (CPInvolutionGroup, {"k": 3}),
    (InjectivityReport, {"radius": 0.5, "minimizer": (1, 0)}),
    (SelfCheckReport, {"checks": ("closure", "T4_identity"), "min_sampled_displacement": 0.25}),
    (
        GridClassification,
        {"xs": np.arange(3.0), "ys": np.arange(2.0), "codes": np.zeros(6, np.int8), "spacing": 0.5},
    ),
    (
        VolumeBoundReport,
        {
            "model": _HS4,
            "dual": _S4,
            "dual_volume": 8.0 * math.pi**2 / 3.0,
            "euler": 2,
            "signature": None,
            "gb_bound": 4.0 * math.pi**2 / 3.0,
            "sig_bound": None,
            "epsilon": 1.0,
            "notes": ("odd signature",),
        },
    ),
    (CheckResult, {"name": "table S3", "status": "PASS", "details": "ok"}),
    (SvgFigure, {"x_range": (-1.0, 1.0), "y_range": (0.0, 2.0), "metadata": "m"}),
]

#: Records whose value equality no caller uses: numpy fields compare
#: elementwise, and the deck groups are compared by identity.
_BY_IDENTITY = (
    GridClassification, TorusGroup, KleinGroup, AntipodalGroup, LensGroup, CPInvolutionGroup,
)


@pytest.mark.parametrize("cls,fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_construction_reads_and_immutability(cls, fields):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    for record in (by_position, by_keyword):
        for name, value in fields.items():
            assert getattr(record, name) is value
    if cls is SvgFigure:
        # the one mutable record: each figure draws into its own body
        other = SvgFigure()
        by_position.dot((0.0, 1.0))
        assert len(by_position._body) == 1 and other._body == by_keyword._body == []
        by_position.metadata = "changed"
        assert by_position.metadata == "changed"
        return
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(by_position, name, 0)
        with pytest.raises(AttributeError):
            delattr(by_position, name)
    for name, value in fields.items():
        assert getattr(by_position, name) is value
    if cls not in _BY_IDENTITY:
        assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
        assert {by_keyword: 1}[by_position] == 1


def test_interval_and_space_model_validate_on_construction():
    with pytest.raises(ValueError, match=r"^interval requires lo < hi, got \(1.0, 0.0\)$"):
        Interval(1.0, 0.0)
    with pytest.raises(ValueError, match="lo < hi"):
        Interval(0.0, math.nan)
    assert Interval(0.0, 1.0).open_ends == (False, False)
    # the octonion check comes before the dimension check
    with pytest.raises(UnsupportedModel, match="^only the projective plane OP2 exists in the catalogue$"):
        SpaceModel(Family.OCTONION_PLANE, 1, 2)
    with pytest.raises(UnsupportedModel, match="^dimension must be >= 2, got 1$"):
        SpaceModel(Family.SPHERE, 1)
    with pytest.raises(UnsupportedModel, match="^sphere takes no projective index$"):
        SpaceModel(Family.SPHERE, 3, 1)
    with pytest.raises(UnsupportedModel, match=r"^complex_projective needs m = 2k, got m=4, k=1$"):
        SpaceModel(Family.COMPLEX_PROJECTIVE, 4, 1)


def test_space_models_differ_from_other_models_and_tuples():
    # equal models and the dict key are checked above and in test_spaces
    model = complex_projective(2)
    assert model != complex_projective(3) and model != _S4
    assert model != (Family.COMPLEX_PROJECTIVE, 4, 2)

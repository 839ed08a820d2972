"""Catalogue of harmonic model spaces and their volume density functions.

Each model is a rank-1 symmetric space (or Euclidean space) with the
metric normalized so the volume density in geodesic polar coordinates is

    sin(r)^a cos(r)^b        positive curvature,
    sinh(r)^a cosh(r)^b      negative curvature,
    r^(m-1)                  flat,

with a = m-1 and b in {0, 1, 3, 7} by family.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainViolation, UnsupportedModel
from .numerics import Interval, integrate


class Family(enum.Enum):
    SPHERE = "sphere"
    COMPLEX_PROJECTIVE = "complex_projective"
    QUATERNION_PROJECTIVE = "quaternion_projective"
    OCTONION_PLANE = "octonion_plane"
    HYPERBOLIC_SPACE = "hyperbolic_space"
    COMPLEX_HYPERBOLIC = "complex_hyperbolic"
    QUATERNION_HYPERBOLIC = "quaternion_hyperbolic"
    OCTONION_HYPERBOLIC = "octonion_hyperbolic"
    EUCLIDEAN = "euclidean"


_POSITIVE = {
    Family.SPHERE,
    Family.COMPLEX_PROJECTIVE,
    Family.QUATERNION_PROJECTIVE,
    Family.OCTONION_PLANE,
}
_NEGATIVE = {
    Family.HYPERBOLIC_SPACE,
    Family.COMPLEX_HYPERBOLIC,
    Family.QUATERNION_HYPERBOLIC,
    Family.OCTONION_HYPERBOLIC,
}
_COMPLEX = {Family.COMPLEX_PROJECTIVE, Family.COMPLEX_HYPERBOLIC}
_QUATERNION = {Family.QUATERNION_PROJECTIVE, Family.QUATERNION_HYPERBOLIC}
_OCTONION = {Family.OCTONION_PLANE, Family.OCTONION_HYPERBOLIC}


class TrigKind(enum.Enum):
    CIRCULAR = "circular"
    HYPERBOLIC = "hyperbolic"
    POLYNOMIAL = "polynomial"


class CutLocusKind(enum.Enum):
    ANTIPODAL_POINT = "antipodal_point"
    PROJECTIVE_HYPERPLANE = "projective_hyperplane"
    SPHERE_7 = "sphere_7"
    EMPTY = "empty"


@dataclass(frozen=True)
class CutLocusDescriptor:
    kind: CutLocusKind
    index: int | None = None  # hyperplane index k-1 when applicable


@dataclass(frozen=True)
class DensityProfile:
    sine_exponent: int
    cosine_exponent: int
    trig_kind: TrigKind
    domain_end: float  # upper end of the open radial domain


@dataclass(frozen=True)
class SpaceModel:
    family: Family
    dimension: int
    projective_index: int | None = None

    def __post_init__(self):
        m, k = self.dimension, self.projective_index
        if m < 2:
            raise UnsupportedModel(f"dimension must be >= 2, got {m}")
        if self.family in _COMPLEX:
            if k is None or k < 1 or m != 2 * k:
                raise UnsupportedModel(f"complex family needs m = 2k, got m={m}, k={k}")
        elif self.family in _QUATERNION:
            if k is None or k < 1 or m != 4 * k:
                raise UnsupportedModel(f"quaternion family needs m = 4k, got m={m}, k={k}")
        elif self.family in _OCTONION:
            if m != 16 or k not in (None, 2):
                raise UnsupportedModel(f"octonion plane has m = 16, got m={m}")
        elif k is not None:
            raise UnsupportedModel(f"{self.family.value} takes no projective index")

    @property
    def curvature_sign(self) -> int:
        if self.family in _POSITIVE:
            return 1
        if self.family in _NEGATIVE:
            return -1
        return 0

    @cached_property
    def density(self) -> DensityProfile:
        """Exponents, kind and domain end, resolved once per model."""
        if self.family in _COMPLEX:
            b = 1
        elif self.family in _QUATERNION:
            b = 3
        elif self.family in _OCTONION:
            b = 7
        else:
            b = 0
        kind = {1: TrigKind.CIRCULAR, -1: TrigKind.HYPERBOLIC, 0: TrigKind.POLYNOMIAL}[
            self.curvature_sign
        ]
        if self.curvature_sign <= 0:
            end = math.inf
        else:
            end = math.pi if self.family is Family.SPHERE else 0.5 * math.pi
        return DensityProfile(self.dimension - 1, b, kind, end)

    @property
    def model_id(self) -> str:
        base = {
            Family.SPHERE: f"S{self.dimension}",
            Family.COMPLEX_PROJECTIVE: f"CP{self.projective_index}",
            Family.QUATERNION_PROJECTIVE: f"HP{self.projective_index}",
            Family.OCTONION_PLANE: "OP2",
            Family.HYPERBOLIC_SPACE: f"hS{self.dimension}",
            Family.COMPLEX_HYPERBOLIC: f"hCP{self.projective_index}",
            Family.QUATERNION_HYPERBOLIC: f"hHP{self.projective_index}",
            Family.OCTONION_HYPERBOLIC: "hOP2",
            Family.EUCLIDEAN: f"E{self.dimension}",
        }
        return base[self.family]

    def __str__(self) -> str:
        return self.model_id


def sphere(m: int) -> SpaceModel:
    return SpaceModel(Family.SPHERE, m)


def complex_projective(k: int) -> SpaceModel:
    return SpaceModel(Family.COMPLEX_PROJECTIVE, 2 * k, k)


def quaternion_projective(k: int) -> SpaceModel:
    return SpaceModel(Family.QUATERNION_PROJECTIVE, 4 * k, k)


def octonion_plane() -> SpaceModel:
    return SpaceModel(Family.OCTONION_PLANE, 16, 2)


def hyperbolic_space(m: int) -> SpaceModel:
    return SpaceModel(Family.HYPERBOLIC_SPACE, m)


def complex_hyperbolic(k: int) -> SpaceModel:
    return SpaceModel(Family.COMPLEX_HYPERBOLIC, 2 * k, k)


def quaternion_hyperbolic(k: int) -> SpaceModel:
    return SpaceModel(Family.QUATERNION_HYPERBOLIC, 4 * k, k)


def octonion_hyperbolic() -> SpaceModel:
    return SpaceModel(Family.OCTONION_HYPERBOLIC, 16, 2)


def euclidean(m: int) -> SpaceModel:
    return SpaceModel(Family.EUCLIDEAN, m)


_ID_RE = re.compile(r"^(h?)(S|CP|HP|OP|E)(\d+)$")

_BUILDERS = {
    ("", "S"): sphere,
    ("", "CP"): complex_projective,
    ("", "HP"): quaternion_projective,
    ("", "E"): euclidean,
    ("h", "S"): hyperbolic_space,
    ("h", "CP"): complex_hyperbolic,
    ("h", "HP"): quaternion_hyperbolic,
}


def parse_model_id(model_id: str) -> SpaceModel:
    """Parse a CLI identifier such as S3, CP2, hHP4, OP2, E5 (case-sensitive)."""
    m = _ID_RE.match(model_id)
    if not m:
        raise UnsupportedModel(f"unrecognized model id {model_id!r}")
    prefix, stem, num = m.group(1), m.group(2), int(m.group(3))
    if stem == "OP":
        if num != 2:
            raise UnsupportedModel("only the projective plane OP2 exists in the catalogue")
        return octonion_hyperbolic() if prefix == "h" else octonion_plane()
    if prefix == "h" and stem == "E":
        raise UnsupportedModel("flat space has no hyperbolic dual id")
    try:
        return _BUILDERS[(prefix, stem)](num)
    except UnsupportedModel:
        raise
    except Exception as exc:  # dimension/index violations surface uniformly
        raise UnsupportedModel(str(exc)) from exc


def hyperbolic_dual(model: SpaceModel) -> SpaceModel:
    """The negative-curvature dual of a positive-curvature model."""
    duals = {
        Family.SPHERE: Family.HYPERBOLIC_SPACE,
        Family.COMPLEX_PROJECTIVE: Family.COMPLEX_HYPERBOLIC,
        Family.QUATERNION_PROJECTIVE: Family.QUATERNION_HYPERBOLIC,
        Family.OCTONION_PLANE: Family.OCTONION_HYPERBOLIC,
    }
    if model.family not in duals:
        raise UnsupportedModel(f"{model} has no hyperbolic dual")
    return SpaceModel(duals[model.family], model.dimension, model.projective_index)


def positive_dual(model: SpaceModel) -> SpaceModel:
    """The positive-curvature dual of a negative-curvature model."""
    duals = {
        Family.HYPERBOLIC_SPACE: Family.SPHERE,
        Family.COMPLEX_HYPERBOLIC: Family.COMPLEX_PROJECTIVE,
        Family.QUATERNION_HYPERBOLIC: Family.QUATERNION_PROJECTIVE,
        Family.OCTONION_HYPERBOLIC: Family.OCTONION_PLANE,
    }
    if model.family not in duals:
        raise UnsupportedModel(f"{model} has no positive-curvature dual")
    return SpaceModel(duals[model.family], model.dimension, model.projective_index)


def domain_end(model: SpaceModel) -> float:
    """Upper end of the open radial domain (diameter for compact models)."""
    return model.density.domain_end


def domain(model: SpaceModel) -> Interval:
    return Interval(0.0, domain_end(model), (True, True))


def _check_radius(model: SpaceModel, r: float) -> DensityProfile:
    prof = model.density
    if not (0.0 < r < prof.domain_end):
        raise DomainViolation(
            f"r={r!r} outside the open domain (0, {prof.domain_end}) of {model}"
        )
    return prof


def theta(model: SpaceModel, r: float) -> float:
    """Volume density at geodesic distance r from the basepoint."""
    prof = _check_radius(model, r)
    a, b = prof.sine_exponent, prof.cosine_exponent
    if prof.trig_kind is TrigKind.CIRCULAR:
        return math.sin(r) ** a * math.cos(r) ** b
    if prof.trig_kind is TrigKind.HYPERBOLIC:
        return math.sinh(r) ** a * math.cosh(r) ** b
    return r**a


def theta_tilde(model: SpaceModel, r: float) -> float:
    """Density with the flat factor removed; tends to 1 as r -> 0."""
    return theta(model, r) / r ** (model.dimension - 1)


def log_derivative_theta(model: SpaceModel, r: float) -> float:
    """d/dr log(theta), in closed form."""
    prof = _check_radius(model, r)
    a, b = prof.sine_exponent, prof.cosine_exponent
    if prof.trig_kind is TrigKind.CIRCULAR:
        return a / math.tan(r) - b * math.tan(r)
    if prof.trig_kind is TrigKind.HYPERBOLIC:
        return a / math.tanh(r) + b * math.tanh(r)
    return a / r


def gamma_half_integer(two_x: int) -> float:
    """Gamma(two_x / 2) for a positive integer two_x, by exact recursion."""
    if two_x < 1:
        raise ValueError("argument must be a positive half-integer")
    if two_x == 1:
        return math.sqrt(math.pi)
    if two_x == 2:
        return 1.0
    return (two_x / 2.0 - 1.0) * gamma_half_integer(two_x - 2)


def unit_sphere_volume(n: int) -> float:
    """Riemannian volume of the unit n-sphere: 2 pi^((n+1)/2) / Gamma((n+1)/2)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return 2.0 * math.pi ** ((n + 1) / 2.0) / gamma_half_integer(n + 1)


_VOLUME_TOL = 1e-11


def model_volume(model: SpaceModel) -> float:
    """Total volume of a compact (positive-curvature) model."""
    if model.curvature_sign != 1:
        raise UnsupportedModel(
            f"{model} is not compact; use ball_volume with an explicit radius"
        )
    return ball_volume(model, domain_end(model))


def ball_volume(model: SpaceModel, radius: float) -> float:
    """Volume of the geodesic ball of the given radius about the basepoint."""
    if not (0.0 < radius <= domain_end(model)):
        raise DomainViolation(f"radius {radius!r} outside (0, {domain_end(model)}]")
    # theta vanishes at 0 and at a compact model's diameter; only those
    # ends are open, since a panel next to an open end must shrink until
    # its whole value is below tolerance
    iv = Interval(0.0, radius, (True, radius == domain_end(model)))
    result = integrate(lambda r: theta(model, r), iv, tol=_VOLUME_TOL)
    return unit_sphere_volume(model.dimension - 1) * result.value


def cut_locus(model: SpaceModel) -> CutLocusDescriptor:
    """Cut locus of the simply connected model at the basepoint."""
    if model.curvature_sign <= 0:
        return CutLocusDescriptor(CutLocusKind.EMPTY)
    if model.family is Family.SPHERE:
        return CutLocusDescriptor(CutLocusKind.ANTIPODAL_POINT)
    if model.family is Family.OCTONION_PLANE:
        return CutLocusDescriptor(CutLocusKind.SPHERE_7)
    return CutLocusDescriptor(
        CutLocusKind.PROJECTIVE_HYPERPLANE, index=model.projective_index - 1
    )


def positive_curvature_catalogue(max_sphere_dim: int = 8) -> list[SpaceModel]:
    """The compact models exercised by verification runs."""
    models = [sphere(m) for m in range(2, max_sphere_dim + 1)]
    models += [complex_projective(k) for k in (1, 2, 3, 4)]
    models += [quaternion_projective(k) for k in (2, 3, 4)]
    models.append(octonion_plane())
    return models

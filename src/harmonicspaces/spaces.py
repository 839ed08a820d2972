"""Catalogue of harmonic model spaces and their volume density functions.

Each model is a rank-1 symmetric space (or Euclidean space) with the
metric normalized so the volume density in geodesic polar coordinates is

    sin(r)^a cos(r)^b        positive curvature,
    sinh(r)^a cosh(r)^b      negative curvature,
    r^(m-1)                  flat,

with a = m-1 and b = d-1, where d in {1, 2, 4, 8} is the real dimension of
the family's division algebra R, C, H or O and m = d k (Besse, *Manifolds
all of whose geodesics are closed*, 1978).  A model id is the family's stem
followed by m // d: m for S, hS and E, k for CP, HP and their duals, and 2
for the octonion plane OP2 and its dual hOP2, the only octonionic models.
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


# every per-family fact: id stem, curvature sign, division algebra dimension d
_ROWS = {
    Family.SPHERE: ("S", 1, 1),
    Family.COMPLEX_PROJECTIVE: ("CP", 1, 2),
    Family.QUATERNION_PROJECTIVE: ("HP", 1, 4),
    Family.OCTONION_PLANE: ("OP", 1, 8),
    Family.HYPERBOLIC_SPACE: ("hS", -1, 1),
    Family.COMPLEX_HYPERBOLIC: ("hCP", -1, 2),
    Family.QUATERNION_HYPERBOLIC: ("hHP", -1, 4),
    Family.OCTONION_HYPERBOLIC: ("hOP", -1, 8),
    Family.EUCLIDEAN: ("E", 0, 1),
}


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
    curvature_sign: int  # selects sin/cos (> 0), sinh/cosh (< 0) or r (0)
    domain_end: float  # upper end of the open radial domain


@dataclass(frozen=True)
class SpaceModel:
    family: Family
    dimension: int
    projective_index: int | None = None

    def __post_init__(self):
        _, _, d = _ROWS[self.family]
        m, k = self.dimension, self.projective_index
        if d == 8 and (m, k) != (16, 2):
            raise UnsupportedModel("only the projective plane OP2 exists in the catalogue")
        if m < 2:
            raise UnsupportedModel(f"dimension must be >= 2, got {m}")
        if d == 1:
            if k is not None:
                raise UnsupportedModel(f"{self.family.value} takes no projective index")
        elif k is None or m != d * k:
            raise UnsupportedModel(f"{self.family.value} needs m = {d}k, got m={m}, k={k}")

    @property
    def curvature_sign(self) -> int:
        return _ROWS[self.family][1]

    @cached_property
    def density(self) -> DensityProfile:
        """Exponents, curvature sign and domain end, resolved once per model."""
        _, sign, d = _ROWS[self.family]
        if sign <= 0:
            end = math.inf
        else:
            end = math.pi if d == 1 else 0.5 * math.pi  # sphere, projective space
        return DensityProfile(self.dimension - 1, d - 1, sign, end)

    @property
    def model_id(self) -> str:
        stem, _, d = _ROWS[self.family]
        return f"{stem}{self.dimension // d}"

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


_ID_RE = re.compile(r"(h?(?:S|CP|HP|OP|E))(0|[1-9][0-9]*)")


def parse_model_id(model_id: str) -> SpaceModel:
    """Parse a CLI identifier such as S3, CP2, hHP4, OP2, E5 (case-sensitive)."""
    match = _ID_RE.fullmatch(model_id)
    if not match:
        raise UnsupportedModel(f"unrecognized model id {model_id!r}")
    num = int(match.group(2))
    for family, (stem, _, d) in _ROWS.items():
        if stem == match.group(1):
            return SpaceModel(family, d * num, None if d == 1 else num)
    raise UnsupportedModel("flat space has no hyperbolic dual id")  # hE<m>


def hyperbolic_dual(model: SpaceModel) -> SpaceModel:
    """The negative-curvature dual of a positive-curvature model."""
    if model.curvature_sign != 1:
        raise UnsupportedModel(f"{model} has no hyperbolic dual")
    return parse_model_id("h" + model.model_id)


def positive_dual(model: SpaceModel) -> SpaceModel:
    """The positive-curvature dual of a negative-curvature model."""
    if model.curvature_sign != -1:
        raise UnsupportedModel(f"{model} has no positive-curvature dual")
    return parse_model_id(model.model_id[1:])


def domain_end(model: SpaceModel) -> float:
    """Upper end of the open radial domain (diameter for compact models)."""
    return model.density.domain_end


def domain(model: SpaceModel) -> Interval:
    return Interval(0.0, domain_end(model), (True, True))


def check_radius(model: SpaceModel, *rs: float) -> DensityProfile:
    """The model's density profile, once every r lies in the open radial
    domain (0, D); DomainViolation names the first r that does not."""
    prof = model.density
    for r in rs:
        if not (0.0 < r < prof.domain_end):
            raise DomainViolation(
                f"r={r!r} outside the open domain (0, {prof.domain_end}) of {model}"
            )
    return prof


def theta(model: SpaceModel, r: float) -> float:
    """Volume density at geodesic distance r from the basepoint.
    OverflowError naming the model where the value leaves float64."""
    prof = check_radius(model, r)
    a, b = prof.sine_exponent, prof.cosine_exponent
    try:
        if prof.curvature_sign > 0:
            value = math.sin(r) ** a * math.cos(r) ** b
        elif prof.curvature_sign < 0:
            value = math.sinh(r) ** a * math.cosh(r) ** b
        else:
            value = r**a
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise OverflowError(f"theta of {model.model_id} at r={r!r} overflows float64")
    return value


def theta_tilde(model: SpaceModel, r: float) -> float:
    """Density with the flat factor removed; tends to 1 as r -> 0."""
    return theta(model, r) / r ** (model.dimension - 1)


def log_derivative_theta(model: SpaceModel, r: float) -> float:
    """d/dr log(theta), in closed form."""
    prof = check_radius(model, r)
    a, b = prof.sine_exponent, prof.cosine_exponent
    if prof.curvature_sign > 0:
        return a / math.tan(r) - b * math.tan(r)
    if prof.curvature_sign < 0:
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
    """Riemannian volume of the unit n-sphere: 2 pi^((n+1)/2) / Gamma((n+1)/2).
    OverflowError for n >= 343, where Gamma (and from n = 1240 the power)
    overflows float64 and the quotient would read 0.0 or nan."""
    if n < 0:
        raise ValueError("n must be >= 0")
    try:
        # the power goes first, so a huge n overflows before the Gamma recursion
        volume = 2.0 * math.pi ** ((n + 1) / 2.0) / gamma_half_integer(n + 1)
    except OverflowError:
        volume = math.nan
    if not volume > 0.0:
        raise OverflowError(f"the volume of the unit {n}-sphere is outside float64")
    return volume


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
    end = domain_end(model)
    if not (0.0 < radius <= end and radius < math.inf):
        raise DomainViolation(
            f"radius {radius!r} outside (0, {end}{']' if end < math.inf else ')'}"
        )
    # theta vanishes at 0 and at a compact model's diameter; only those
    # ends are open, since a panel next to an open end must shrink until
    # its whole value is below tolerance
    iv = Interval(0.0, radius, (True, radius == end))
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

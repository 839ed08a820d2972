"""Radial harmonic functions phi0 and their verification.

phi1 = 1/theta is the derivative of the radial harmonic function phi0;
phi0 itself is available in closed form for the low-dimensional catalogue
below and numerically (as a definite integral of phi1) everywhere.  The
closed forms are transcribed verbatim from machine-generated tables, so
every entry is checked against the quadrature oracle rather than trusted.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import UnsupportedModel
from .numerics import _XGK, DEFAULT_TOL, Interval, _gk15, converged, derivative, integrate
from .spaces import (
    Family,
    SpaceModel,
    check_radius,
    domain,
    domain_end,
    log_derivative_theta,
    parse_model_id,
    theta,
    theta_array,
)

_FLOAT_MAX = sys.float_info.max


def phi1(model: SpaceModel, r: float) -> float:
    """Reciprocal density 1/theta, the derivative of phi0.  OverflowError
    where 1/theta is not finite: theta is 0.0 or subnormal."""
    try:
        value = 1.0 / theta(model, r)
    except ZeroDivisionError:
        value = math.inf
    if not value <= _FLOAT_MAX:
        raise OverflowError(
            f"phi1 of {model.model_id} at r={r!r} overflows float64: "
            f"theta is {theta(model, r)!r}"
        )
    return value


# --- closed-form catalogue -------------------------------------------------

# Each form reads its elementary functions from the namespace m: math for
# one float, numpy for an array of radii, elementwise with the same formula.


def _csc(r, m):
    return 1.0 / m.sin(r)


def _sec(r, m):
    return 1.0 / m.cos(r)


def _cot(r, m):
    return m.cos(r) / m.sin(r)


def _csch(r, m):
    return 1.0 / m.sinh(r)


def _sech(r, m):
    return 1.0 / m.cosh(r)


def _coth(r, m):
    return m.cosh(r) / m.sinh(r)


def _phi0_S2(r, m=math):
    return m.log(m.tan(r / 2.0))


def _phi0_S3(r, m=math):
    return -_cot(r, m)


def _phi0_S4(r, m=math):
    return (
        -_csc(r / 2.0, m) ** 2 / 8.0
        + _sec(r / 2.0, m) ** 2 / 8.0
        + 0.5 * m.log(m.tan(r / 2.0))
    )


def _phi0_S5(r, m=math):
    return -2.0 / 3.0 * _cot(r, m) - _cot(r, m) * _csc(r, m) ** 2 / 3.0


def _phi0_CP2(r, m=math):
    return -0.5 * _csc(r, m) ** 2 + m.log(m.tan(r))


def _phi0_CP3(r, m=math):
    return -0.25 * _csc(r, m) ** 4 - 0.5 * _csc(r, m) ** 2 + m.log(m.tan(r))


def _phi0_CP4(r, m=math):
    c2 = _csc(r, m) ** 2
    return -c2**3 / 6.0 - 0.25 * c2**2 - 0.5 * c2 + m.log(m.tan(r))


def _phi0_HP2(r, m=math):
    c2 = _csc(r, m) ** 2
    return 0.5 * (
        -c2**3 / 3.0 - c2**2 - 3.0 * c2 + _sec(r, m) ** 2 + 8.0 * m.log(m.tan(r))
    )


def _phi0_HP3(r, m=math):
    c2 = _csc(r, m) ** 2
    return 0.5 * (
        -c2**5 / 5.0
        - 0.5 * c2**4
        - c2**3
        - 2.0 * c2**2
        - 5.0 * c2
        + _sec(r, m) ** 2
        + 12.0 * m.log(m.tan(r))
    )


def _phi0_HP4(r, m=math):
    c2 = _csc(r, m) ** 2
    return 0.5 * (
        -c2**7 / 7.0
        - c2**6 / 3.0
        - 3.0 / 5.0 * c2**5
        - c2**4
        - 5.0 / 3.0 * c2**3
        - 3.0 * c2**2
        - 7.0 * c2
        + _sec(r, m) ** 2
        + 16.0 * m.log(m.tan(r))
    )


def _phi0_OP2(r, m=math):
    c2 = _csc(r, m) ** 2
    s2 = _sec(r, m) ** 2
    return (
        -c2**7 / 14.0
        - c2**6 / 3.0
        - c2**5
        - 2.5 * c2**4
        - 35.0 / 6.0 * c2**3
        - 14.0 * c2**2
        - 42.0 * c2
        + s2**3 / 6.0
        + 2.0 * s2**2
        + 18.0 * s2
        + 120.0 * m.log(m.tan(r))
    )


def _phi0_hS2(r, m=math):
    return m.log(m.tanh(r / 2.0))


def _phi0_hS3(r, m=math):
    return -_coth(r, m)


def _phi0_hS4(r, m=math):
    return (
        -_csch(r / 2.0, m) ** 2 / 8.0
        - _sech(r / 2.0, m) ** 2 / 8.0
        - 0.5 * m.log(m.tanh(r / 2.0))
    )


def _phi0_hS5(r, m=math):
    return 2.0 / 3.0 * _coth(r, m) - _coth(r, m) * _csch(r, m) ** 2 / 3.0


def _phi0_hCP2(r, m=math):
    return -0.5 * _csch(r, m) ** 2 - m.log(m.tanh(r))


def _phi0_hCP3(r, m=math):
    return -0.25 * _csch(r, m) ** 4 + 0.5 * _csch(r, m) ** 2 + m.log(m.tanh(r))


def _phi0_hCP4(r, m=math):
    c2 = _csch(r, m) ** 2
    return -c2**3 / 6.0 + 0.25 * c2**2 - 0.5 * c2 - m.log(m.tanh(r))


def _phi0_hHP2(r, m=math):
    c2 = _csch(r, m) ** 2
    return 0.5 * (
        -c2**3 / 3.0 + c2**2 - 3.0 * c2 - _sech(r, m) ** 2 - 8.0 * m.log(m.tanh(r))
    )


def _phi0_hHP3(r, m=math):
    c2 = _csch(r, m) ** 2
    return (
        -c2**5 / 10.0
        + 0.25 * c2**4
        - 0.5 * c2**3
        + c2**2
        - 2.5 * c2
        - 0.5 * _sech(r, m) ** 2
        - 6.0 * m.log(m.tanh(r))
    )


def _phi0_hHP4(r, m=math):
    c2 = _csch(r, m) ** 2
    return 0.5 * (
        -c2**7 / 7.0
        + c2**6 / 3.0
        - 3.0 / 5.0 * c2**5
        + c2**4
        - 5.0 / 3.0 * c2**3
        + 3.0 * c2**2
        - 7.0 * c2
        - _sech(r, m) ** 2
        - 16.0 * m.log(m.tanh(r))
    )


def _phi0_hOP2(r, m=math):
    c2 = _csch(r, m) ** 2
    s2 = _sech(r, m) ** 2
    return (
        -c2**7 / 14.0
        + c2**6 / 3.0
        - c2**5
        + 2.5 * c2**4
        - 35.0 / 6.0 * c2**3
        + 14.0 * c2**2
        - 42.0 * c2
        - s2**3 / 6.0
        - 2.0 * s2**2
        - 18.0 * s2
        - 120.0 * m.log(m.tanh(r))
    )


#: Closed forms keyed by model id, exactly as transcribed.
CLOSED_FORMS: dict[str, Callable[..., float]] = {
    "S2": _phi0_S2,
    "S3": _phi0_S3,
    "S4": _phi0_S4,
    "S5": _phi0_S5,
    "CP2": _phi0_CP2,
    "CP3": _phi0_CP3,
    "CP4": _phi0_CP4,
    "HP2": _phi0_HP2,
    "HP3": _phi0_HP3,
    "HP4": _phi0_HP4,
    "OP2": _phi0_OP2,
    "hS2": _phi0_hS2,
    "hS3": _phi0_hS3,
    "hS4": _phi0_hS4,
    "hS5": _phi0_hS5,
    "hCP2": _phi0_hCP2,
    "hCP3": _phi0_hCP3,
    "hCP4": _phi0_hCP4,
    "hHP2": _phi0_hHP2,
    "hHP3": _phi0_hHP3,
    "hHP4": _phi0_hHP4,
    "hOP2": _phi0_hOP2,
}

def has_closed_form(model: SpaceModel) -> bool:
    return model.family is Family.EUCLIDEAN or model.model_id in CLOSED_FORMS


def closed_form_models() -> list[SpaceModel]:
    """Catalogue rows with a transcribed closed form (flat space excluded)."""
    return [parse_model_id(mid) for mid in CLOSED_FORMS]


def _phi0_E2(r, m=math):
    return m.log(r)


def closed_form(model: SpaceModel) -> Callable[..., float]:
    """The closed-form phi0 of ``model`` as one callable, resolved once.

    The transcribed entry of ``CLOSED_FORMS``; for flat space log for
    m = 2 and r^(2-m)/(2-m) for m > 2, with an OverflowError naming the
    model (and the first such radius) where r^(2-m) leaves float64.  Every
    form takes a float, or a numpy array with the namespace ``numpy`` as
    its second argument.  The callable checks no domain.
    """
    if model.family is Family.EUCLIDEAN:
        dim = model.dimension
        if dim == 2:
            return _phi0_E2

        def power(r, m=math):
            if m is math:
                try:
                    return r ** (2 - dim) / (2 - dim)
                except OverflowError:
                    bad = r
            else:
                with m.errstate(over="ignore"):
                    value = r ** (2 - dim) / (2 - dim)
                outside = ~m.isfinite(value)
                if not outside.any():
                    return value
                bad = float(r[outside][0])
            raise OverflowError(f"phi0 of {model.model_id} at r={bad!r} overflows float64")

        return power
    form = CLOSED_FORMS.get(model.model_id)
    if form is None:
        raise UnsupportedModel(f"no closed-form phi0 for {model}")
    return form


def phi0_closed(model: SpaceModel, r: float) -> float:
    """Closed-form phi0 where the catalogue provides one (``closed_form``)."""
    check_radius(model, r)
    return closed_form(model)(r)


def phi0_numeric_grid(
    model: SpaceModel, rs: list[float], r_ref: float, tol: float = DEFAULT_TOL
) -> list[float]:
    """Definite integrals of phi1 from r_ref to each r of ``rs``, in its order.

    Each gap between neighbouring distinct points of rs and r_ref is
    integrated once at tol / gaps, so the summed error estimate keeps the
    bound of one integral at tol, and the values are running sums outward
    from r_ref.  The first GK15 panels of all gaps take one density call on
    all their nodes, which ``_gk15`` then sums, so a panel is bit for bit
    the one ``integrate`` starts from.  A gap keeps its panel when theta
    and 1/theta are finite at all 15 nodes and the panel meets
    ``integrate``'s own stopping rule, and every other gap goes to
    ``integrate``, which raises what the scalar path raises.
    """
    import numpy as np  # here, so that importing harmonic does not load numpy

    check_radius(model, *rs, r_ref)
    points = sorted({*rs, r_ref})
    gap_tol = tol / max(len(points) - 1, 1)
    a, b = np.array(points[:-1]), np.array(points[1:])
    # the nodes of every first panel in the order _gk15 asks for them
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    nodes = [c]
    for x in _XGK:
        nodes += (c - h * x, c + h * x)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        th = theta_array(model, np.stack(nodes))
        values = 1.0 / th
        finite = (np.isfinite(th) & np.isfinite(values)).all(axis=0)
        rows = iter(values)
        panel, error = _gk15(lambda _: next(rows), a, b)
        accepted = (finite & converged(panel, error, gap_tol)).tolist()
    panel = panel.tolist()
    f = lambda s: phi1(model, s)

    def gap(i: int) -> float:
        if accepted[i]:
            return panel[i]
        return integrate(f, Interval(points[i], points[i + 1]), tol=gap_tol).value

    k = points.index(r_ref)
    values = {r_ref: 0.0}
    total = 0.0
    for i in range(k, len(points) - 1):
        total += gap(i)
        values[points[i + 1]] = total
    total = 0.0
    for i in reversed(range(k)):
        total += gap(i)
        values[points[i]] = -total
    return [values[r] for r in rs]


def phi0_numeric(
    model: SpaceModel, r: float, r_ref: float, tol: float = DEFAULT_TOL
) -> float:
    """Definite integral of phi1 from r_ref to r; antisymmetric in (r, r_ref).

    One scalar ``integrate`` over [min(r, r_ref), max(r, r_ref)].
    """
    check_radius(model, r, r_ref)
    if r == r_ref:
        return 0.0
    iv = Interval(min(r, r_ref), max(r, r_ref))
    value = integrate(lambda s: phi1(model, s), iv, tol=tol).value
    return value if r > r_ref else -value


def laplacian_radial(model: SpaceModel, f: Callable[[float], float], r: float) -> float:
    """Radial Laplace-Beltrami operator -(f'' + (log theta)' f') at r.

    Both derivatives come from ``numerics.derivative``; for phi0 the
    returned value is a residual near zero.
    """
    iv = domain(model)
    fp = derivative(f, r, 1, interval=iv)
    fpp = derivative(f, r, 2, interval=iv)
    return -(fpp + log_derivative_theta(model, r) * fp)


def harmonicity_residual(model: SpaceModel, f: Callable[[float], float], r: float) -> float:
    """|radial Laplacian| scaled by max(1, phi1).

    phi1 is the natural magnitude of the two cancelling terms; on rows with
    order-one values the scale is 1 and this is the raw residual.
    """
    return abs(laplacian_radial(model, f, r)) / max(1.0, abs(phi1(model, r)))


class BoundaryBehavior(enum.Enum):
    DIVERGENT = "divergent"
    EXTENDABLE = "extendable"
    NO_BOUNDARY = "no_boundary"


@dataclass(frozen=True)
class BoundaryClassification:
    at_origin: BoundaryBehavior
    at_far_end: BoundaryBehavior


def _end_behavior(order: int) -> BoundaryBehavior:
    """phi1 ~ x^(-order) at an end where theta vanishes to that order, so
    phi0 blows up there exactly when order >= 1."""
    return BoundaryBehavior.DIVERGENT if order >= 1 else BoundaryBehavior.EXTENDABLE


def classify_boundary(model: SpaceModel) -> BoundaryClassification:
    """Integrability of phi1 at the ends of the radial domain.

    Read from the density, not from quadrature: theta vanishes to order
    sine_exponent at the origin.  On a compact model it vanishes at the cut
    locus to order sine_exponent at pi (spheres) or cosine_exponent at pi/2
    (CP, HP, OP), since sin has a simple zero at pi and cos at pi/2.
    """
    prof = model.density
    origin = _end_behavior(prof.sine_exponent)
    if model.curvature_sign <= 0:
        return BoundaryClassification(origin, BoundaryBehavior.NO_BOUNDARY)
    far = prof.sine_exponent if prof.domain_end == math.pi else prof.cosine_exponent
    return BoundaryClassification(origin, _end_behavior(far))


#: Largest scaled residuals a table row may show: the closed form's
#: derivative against phi1, and its differences against quadrature.
ODE_TOLERANCE = 1e-6
MATCH_TOLERANCE = 1e-8


@dataclass(frozen=True)
class TableVerification:
    """Residuals of one closed-form row against the quadrature oracle.

    Residuals are scaled: |x - y| / max(1, |x|, |y|).  On rows whose values
    stay of order one this is the plain absolute residual; on rows with
    csc^14-scale magnitudes an absolute comparison would be meaningless in
    float64.
    """

    model_id: str
    max_ode_residual: float
    max_match_residual: float

    @property
    def passed(self) -> bool:
        return (
            self.max_ode_residual <= ODE_TOLERANCE
            and self.max_match_residual <= MATCH_TOLERANCE
        )


def scaled_residual(x, y):
    """|x - y| / max(1, |x|, |y|), elementwise on numpy arrays; NaN stays NaN."""
    import numpy as np  # here, so that importing harmonic does not load numpy

    return np.abs(x - y) / np.maximum(np.maximum(1.0, np.abs(x)), np.abs(y))


def verification_grid(model: SpaceModel) -> list[float]:
    """50 points spanning (0.1 D', 0.9 D') with D' = min(domain_end, 3)."""
    d = min(domain_end(model), 3.0)
    return [0.1 * d + (0.8 * d) * i / 49 for i in range(50)]


def _ode_derivative(model: SpaceModel, form, r: float) -> float:
    """The ODE check's derivative of the closed form at one grid point,
    with an OverflowError naming the model and the point."""
    try:
        return derivative(form, r, 1, interval=domain(model))
    except OverflowError:
        raise OverflowError(
            f"derivative of phi0 of {model.model_id} at r={r!r} overflows float64"
        ) from None


def verify_table_entry(model: SpaceModel) -> TableVerification:
    """Check a closed form against the two independent oracles.

    ODE check: ``numerics.derivative`` of the closed form against phi1.
    Match check: quadrature differences along the grid against closed-form
    differences.  Each check is one array evaluation of the form, on the
    stencils of the whole grid and on the grid.  A NaN residual at any grid
    point is kept, so the row fails.  Where the array pass overflows, or
    1/theta is not finite, the grid points are taken one at a time by the
    scalar functions, which raise an OverflowError naming the model.
    """
    import numpy as np  # here, so that importing harmonic does not load numpy

    form = closed_form(model)
    grid = verification_grid(model)
    k = len(grid) // 2
    rs = np.array(grid)
    try:
        fd = derivative(lambda x: form(x, np), rs, 1, interval=domain(model))
    except OverflowError:
        fd = np.array([_ode_derivative(model, form, r) for r in grid])
    with np.errstate(over="ignore", divide="ignore"):
        th = theta_array(model, rs)
        phi1_grid = 1.0 / th
    outside = ~(np.isfinite(th) & np.isfinite(phi1_grid))
    phi1_grid[outside] = [phi1(model, r) for r in rs[outside].tolist()]
    ode = float(np.max(scaled_residual(fd, phi1_grid)))

    values = form(rs, np)
    numeric = np.array(phi0_numeric_grid(model, grid, grid[k]))
    match = float(np.max(scaled_residual(numeric, values - values[k])))
    return TableVerification(model.model_id, ode, match)

"""Radial harmonic functions phi0 and their verification.

phi1 = 1/theta is the derivative of the radial harmonic function phi0;
phi0 itself is available in closed form for the low-dimensional catalogue
below and numerically (as a definite integral of phi1) everywhere.  The
closed forms are transcribed verbatim from machine-generated tables, so
every entry is checked against the quadrature oracle rather than trusted.
"""

import enum
import math
import sys
from typing import Callable, NamedTuple

from .errors import UnsupportedModel
from .numerics import (
    DEFAULT_TOL,
    Interval,
    bisect,
    converged,
    derivative,
    gk15_panels,
    integrate,
)
from .spaces import (
    Family,
    SpaceModel,
    check_radius,
    domain,
    domain_end,
    log_derivative_theta,
    theta,
)

_FLOAT_MAX = sys.float_info.max


def phi1(model: SpaceModel, r):
    """Reciprocal density 1/theta, the derivative of phi0.  OverflowError
    where 1/theta is not finite: theta is 0.0 or subnormal.  ``r`` may be a
    numpy array, as for ``theta``, whose errors come first."""
    th = theta(model, r)
    if getattr(r, "ndim", 0) == 0:
        value = 1.0 / th if th else math.inf
        if value <= _FLOAT_MAX:
            return value
    else:
        import numpy as np  # here, so that the float path does not load numpy

        with np.errstate(over="ignore", divide="ignore"):
            value = 1.0 / th
        if value.max(initial=0.0) <= _FLOAT_MAX:
            return value
        outside = ~(value <= _FLOAT_MAX)
        r, th = float(r[outside][0]), float(th[outside][0])
    raise OverflowError(
        f"phi1 of {model.model_id} at r={r!r} overflows float64: theta is {th!r}"
    )


# --- closed-form catalogue -------------------------------------------------

# Each form reads its elementary functions from the namespace m: math for
# one float, numpy for an array of radii, elementwise with the same formula.
# Every one is analytic, so on a complex array numpy extends it off the real
# axis, as the ODE check's complex step needs.


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


def _phi0_E2(r, m=math):
    return m.log(r)


def closed_form(model: SpaceModel) -> Callable[..., float]:
    """The closed-form phi0 of ``model`` as one callable, resolved once.

    The transcribed entry of ``CLOSED_FORMS``; for flat space log for
    m = 2 and r^(2-m)/(2-m) for m > 2, with an OverflowError naming the
    model (and the first such radius) where r^(2-m) leaves float64.  Every
    form takes a float, or a real or complex numpy array with the namespace
    ``numpy`` as its second argument.  The callable checks no domain.
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
    from r_ref.  The one-row call of ``phi0_numeric_grids``, which says how.
    """
    return phi0_numeric_grids([(model, rs, r_ref)], tol)[0]


def _panels_by_model(models, owner, a, b):
    """``gk15_panels`` on the panels [a[i], b[i]] of models[owner[i]], in
    their order.  The pass groups the panels by model, stably, and each
    model's density is one ``phi1`` call on its own nodes as one contiguous
    (15, n) array: the array a pass over that model's panels alone would
    evaluate, so every value is that pass's, bit for bit."""
    if len(models) == 1:
        return gk15_panels(lambda nodes: phi1(models[0], nodes), a, b)
    import numpy as np  # here, so that importing harmonic does not load numpy

    order = np.argsort(owner, kind="stable")
    stops = np.cumsum(np.bincount(owner, minlength=len(models))).tolist()

    def density(nodes):
        values = np.empty_like(nodes)
        for model, lo, hi in zip(models, [0, *stops], stops):
            if lo < hi:
                values[:, lo:hi] = phi1(model, np.ascontiguousarray(nodes[:, lo:hi]))
        return values

    back = np.argsort(order)
    return [x[back] for x in gk15_panels(density, a[order], b[order])]


def phi0_numeric_grids(rows, tol: float = DEFAULT_TOL) -> list[list[float]]:
    """``phi0_numeric_grid(model, rs, r_ref, tol)`` for each (model, rs,
    r_ref) of ``rows``, in array passes over the gaps of all rows at once.

    Each gap takes the steps ``integrate`` would.  The first GK15 panels of
    all gaps take one ``numerics.gk15_panels`` pass, and a gap keeps its
    panel when it meets ``integrate``'s stopping rule at its row's
    tolerance (``numerics.converged``).  The others go on through
    ``numerics.bisect``, the bisection of ``integrate``: each pass halves
    the worst panel of every gap still above tolerance, in one more array
    pass, and its errors name the first gap that fails, in row order.  In
    each pass a model's density is one ``phi1`` call on the nodes of its
    own gaps, so every value and error is the one its row gives alone.
    Every row's DomainViolation comes before any density, in row order.
    """
    import numpy as np  # here, so that importing harmonic does not load numpy

    models = [model for model, _, _ in rows]
    # sorted() and not np.unique, which loads numpy.ma (13 ms) on numpy 2
    grids = [sorted({*rs, r_ref}) for _, rs, r_ref in rows]
    sizes = [len(grid) for grid in grids]
    points = np.array([r for grid in grids for r in grid])
    # without NaN each grid is sorted, so its ends bound it
    if not (
        np.isfinite(points).all()
        and all(grid[0] > 0.0 and grid[-1] < m.density.domain_end for grid, m in zip(grids, models))
    ):
        for model, rs, r_ref in rows:
            check_radius(model, *rs, r_ref)
    # the gaps between neighbouring points of each row, row after row;
    # the last point of a row begins none
    a, b = points[:-1], points[1:]
    widths = [max(size - 1, 0) for size in sizes]
    if len(rows) > 1:
        gap = np.ones(len(a), dtype=bool)
        gap[np.cumsum(sizes[:-1]) - 1] = False
        a, b = a[gap], b[gap]
    gap_tol = np.array([tol / max(width, 1) for width in widths]).repeat(widths)
    owner = np.arange(len(rows)).repeat(widths)
    # a panel sum can still leave float64, and then bisect names the gap
    with np.errstate(over="ignore", invalid="ignore"):
        gaps, error = _panels_by_model(models, owner, a, b)
        missed = np.flatnonzero(~converged(gaps, error, gap_tol))
        if len(missed):
            rows_of = owner[missed]
            halves = lambda i, lo, hi: [
                x.tolist() for x in _panels_by_model(models, rows_of[i], np.array(lo), np.array(hi))
            ]
            firsts = zip(*(x[missed].tolist() for x in (a, b, gaps, error, gap_tol)))
            gaps[missed] = [res.value for res in bisect(halves, firsts)]
    out, start, first = [], 0, 0
    for (_, rs, r_ref), size, width in zip(rows, sizes, widths):
        row, row_gaps = points[first : first + size], gaps[start : start + width]
        k = int(np.searchsorted(row, r_ref))
        # running sums outward from r_ref; cumsum adds in sequence
        sums = np.zeros(size)
        sums[k + 1 :] = np.cumsum(row_gaps[k:])
        sums[:k] = -np.cumsum(row_gaps[:k][::-1])[::-1]
        out.append(sums[np.searchsorted(row, rs)].tolist())
        start, first = start + width, first + size
    return out


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


def _radial_terms(model: SpaceModel, f, r):
    """f'' and (log theta)' f' at r, the two terms of the radial Laplacian,
    from ``numerics.derivative``; elementwise when r is a 1-D numpy array."""
    iv = domain(model)
    fp = derivative(f, r, 1, interval=iv)
    fpp = derivative(f, r, 2, interval=iv)
    return fpp, log_derivative_theta(model, r) * fp


def laplacian_radial(model: SpaceModel, f: Callable[[float], float], r):
    """Radial Laplace-Beltrami operator -(f'' + (log theta)' f') at r.

    Both derivatives come from ``numerics.derivative``; for phi0 the
    returned value is a residual near zero.  ``r`` may be a 1-D numpy array,
    and ``f`` is then called on arrays of radii, as ``derivative`` does.
    """
    fpp, drift = _radial_terms(model, f, r)
    return -(fpp + drift)


def harmonicity_residual(model: SpaceModel, f: Callable[[float], float], r):
    """|radial Laplacian| scaled by max(1, |f''| + |(log theta)' f'|).

    For phi0 the two terms cancel, and the scale is their own size: near
    the origin both are about (m-1)/r times phi1.  On rows whose terms are
    of order one the scale is 1 and this is the raw residual.  ``r`` may
    be a 1-D numpy array, as in ``laplacian_radial``.
    """
    fpp, drift = _radial_terms(model, f, r)
    size = abs(fpp) + abs(drift)
    if getattr(r, "ndim", 0) == 0:
        return abs(fpp + drift) / max(1.0, size)
    import numpy as np  # here, so that the float path does not load numpy

    return abs(fpp + drift) / np.maximum(1.0, size)


def phi0_table(
    model: SpaceModel, rs: list[float], r_ref: float, tol: float, form: Callable[..., float] | None
) -> tuple[list[float], list[float]]:
    """phi-table's two computed columns at the radii rs.

    The first is phi0(r) - phi0(r_ref) by ``phi0_numeric_grid`` at tol, and
    the second ``harmonicity_residual`` of phi0 at each r, from one array
    ``derivative`` per order.  phi0 there is ``form``, a ``closed_form`` of
    the model, or for None the quadrature phi0 from r_ref at tol, with
    ``phi0_numeric_grid`` on all the stencil points at once (three grid
    passes in all).  The caller chooses form, so it is the phi0 of its
    phi0_closed column too.  A residual that is not finite raises an
    OverflowError naming the model and the first such radius.
    """
    import numpy as np  # here, so that importing harmonic does not load numpy

    if form is not None:
        phi0 = lambda x: form(x, np)
    else:

        def phi0(x):
            values = phi0_numeric_grid(model, x.ravel().tolist(), r_ref, tol)
            return np.reshape(values, x.shape)

    radii = np.array(rs, dtype=float)
    with np.errstate(all="ignore"):
        residuals = harmonicity_residual(model, phi0, radii)
    bad = radii[~np.isfinite(residuals)].tolist()
    if bad:
        raise OverflowError(f"residual of phi0 of {model.model_id} at r={bad[0]!r} is not finite")
    return phi0_numeric_grid(model, rs, r_ref, tol), residuals.tolist()


class BoundaryBehavior(enum.Enum):
    DIVERGENT = "divergent"
    EXTENDABLE = "extendable"
    NO_BOUNDARY = "no_boundary"


class BoundaryClassification(NamedTuple):
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
#: derivative against phi1, and its differences against quadrature.  The
#: derivative is exact to rounding (``COMPLEX_STEP``), and a correct row
#: reads at most 3.0e-14 (hOP2), so 1e-12 keeps 30 times that as margin.
ODE_TOLERANCE = 1e-12
MATCH_TOLERANCE = 1e-8

#: Imaginary step of the ODE check: f'(r) = Im f(r + ih) / h + O(h^2) for a
#: form real on the real axis.  Nothing is subtracted, so no digit cancels,
#: and at h = 1e-200 the O(h^2) term is far below rounding.
COMPLEX_STEP = 1e-200


class TableVerification(NamedTuple):
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


def verify_table_entry(model: SpaceModel) -> TableVerification:
    """Check a closed form against the two independent oracles; the one-row
    call of ``verify_table_entries``."""
    return verify_table_entries([model])[0]


def verify_table_entries(models: list[SpaceModel]) -> list[TableVerification]:
    """Check each closed form of ``models`` against the two independent oracles.

    ODE check: the closed form's derivative against phi1, by complex step,
    from one evaluation of the form at grid + i ``COMPLEX_STEP``.  Match
    check: quadrature differences along the grid against closed-form
    differences, from one real evaluation of the form on the grid; the
    quadrature of all rows is one ``phi0_numeric_grids`` call.  A NaN
    residual at any grid point, as a NaN or inf slope gives, is kept, so
    the row fails.  An OverflowError is that of the function that finds
    it, the form or ``phi1``, and names the model and the first failing
    point.  The ODE checks of all rows run before the quadrature.
    """
    import numpy as np  # here, so that importing harmonic does not load numpy

    rows, odes, closed = [], [], []
    for model in models:
        form = closed_form(model)
        grid = verification_grid(model)
        rs = np.array(grid)
        values = form(rs, np)
        # a wrong form may give a NaN or inf slope: kept, so the row fails
        with np.errstate(all="ignore"):
            slope = form(rs + COMPLEX_STEP * 1j, np).imag / COMPLEX_STEP
            odes.append(float(np.max(scaled_residual(slope, phi1(model, rs)))))
        k = len(grid) // 2
        closed.append(values - values[k])
        rows.append((model, grid, grid[k]))
    numeric = phi0_numeric_grids(rows)
    return [
        TableVerification(
            model.model_id, ode, float(np.max(scaled_residual(np.array(values), diffs)))
        )
        for model, ode, values, diffs in zip(models, odes, numeric, closed)
    ]

"""Adaptive quadrature and finite-difference kernels.

Integration uses a nested 7/15 Gauss-Kronrod rule with per-panel error
control.  All Kronrod nodes are strictly interior, so an open endpoint is
never evaluated.  Open endpoints are approached with geometrically
shrinking panels; a divergent endpoint exhausts the panel budget and
raises :class:`NonConvergence`, an integrable one terminates through a
geometric tail bound.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import DomainViolation, NonConvergence

EPS = sys.float_info.epsilon

#: Default absolute tolerance; downstream acceptance tolerances are >= 1e-8.
DEFAULT_TOL = 1e-10

#: Panels laid toward an open endpoint before declaring NonConvergence.
ENDPOINT_PANEL_FLOOR = 1000

#: Geometric ratio of successive endpoint panels.  Chosen so the floor
#: spans 13 decades of distance to the endpoint, close to the resolution
#: float64 offers near a unit-scale endpoint.
ENDPOINT_PANEL_RATIO = 10.0 ** (-13.0 / ENDPOINT_PANEL_FLOOR)

# relative error floor: below ~100 eps no subdivision can help
_REL_FLOOR = 100.0 * EPS

_MAX_INTERIOR_SPLITS = 4000

# 15-point Kronrod abscissae (positive half, descending) and weights;
# every second node starting at index 1 carries the embedded 7-point
# Gauss rule whose weights are listed last.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299785,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
)
_WGK_CENTER = 0.2094821410847278
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
)
_WG_CENTER = 0.4179591836734694


@dataclass(frozen=True)
class Interval:
    """An integration interval; ``open_ends`` marks endpoints that must
    never be evaluated."""

    lo: float
    hi: float
    open_ends: tuple[bool, bool] = (False, False)

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError(f"interval requires lo < hi, got ({self.lo}, {self.hi})")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One 7/15 Gauss-Kronrod application on [a, b].

    Returns (kronrod value, |kronrod - gauss| error estimate).
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    resk = _WGK_CENTER * fc
    resg = _WG_CENTER * fc
    for j, x in enumerate(_XGK):
        dx = h * x
        s = f(c - dx) + f(c + dx)
        resk += _WGK[j] * s
        if j % 2 == 1:
            resg += _WG[j // 2] * s
    return resk * h, abs((resk - resg) * h)


def _adaptive_closed(f, a: float, b: float, tol: float) -> tuple[float, float, int]:
    """Adaptive bisection on a closed panel heap until the summed error
    estimate drops below max(tol, relative floor).

    Returns (value, error estimate, panels evaluated).
    """
    v, e = _gk15(f, a, b)
    heap = [(-e, a, b, v)]
    total_v, total_e = v, e
    panels = 1
    splits = 0
    while splits < _MAX_INTERIOR_SPLITS and math.isfinite(total_v):
        if total_e <= max(tol, _REL_FLOOR * abs(total_v)):
            return total_v, total_e, panels
        neg_e0, a0, b0, v0 = heapq.heappop(heap)
        m = 0.5 * (a0 + b0)
        if not (a0 < m < b0):
            # panel no longer splittable in float64; freeze it
            heapq.heappush(heap, (0.0, a0, b0, v0))
            splits += 1
            continue
        v1, e1 = _gk15(f, a0, m)
        v2, e2 = _gk15(f, m, b0)
        heapq.heappush(heap, (-e1, a0, m, v1))
        heapq.heappush(heap, (-e2, m, b0, v2))
        total_v += v1 + v2 - v0
        total_e += e1 + e2 + neg_e0
        panels += 2
        splits += 1
    if not math.isfinite(total_v):
        # the running sum never returns from inf or nan, so splitting stops
        raise NonConvergence(f"integral over [{a}, {b}] is not finite: {total_v!r}")
    if total_e > max(tol, _REL_FLOOR * abs(total_v)):
        raise NonConvergence(
            f"interior error estimate {total_e:.3e} above tolerance after "
            f"{_MAX_INTERIOR_SPLITS} subdivisions on [{a}, {b}]"
        )
    return total_v, total_e, panels


def _open_end_zone(
    f, endpoint: float, delta: float, at_hi: bool, tol: float
) -> tuple[float, float, int]:
    """Integrate the zone adjacent to an open endpoint with geometric panels.

    Marches panels whose distance to the endpoint shrinks by
    ENDPOINT_PANEL_RATIO each step.  Terminates when the measured decay of
    panel contributions bounds the remaining tail below ``tol``; raises
    NonConvergence if the panel floor (or float64 resolution) is exhausted
    first, which is the signature of a non-integrable endpoint.

    Returns (value, error estimate, panels evaluated).
    """
    q = ENDPOINT_PANEL_RATIO
    d = delta
    total = 0.0
    err = 0.0
    prev = math.inf
    decays = 0
    for k in range(ENDPOINT_PANEL_FLOOR):
        d_next = d * q
        if at_hi:
            x0, x1 = endpoint - d, endpoint - d_next
        else:
            x0, x1 = endpoint + d_next, endpoint + d
        if not (x0 < x1):
            break  # float64 cannot place another panel
        v, e = _gk15(f, x0, x1)
        if not math.isfinite(v):
            break
        total += v
        err += e
        c = abs(v)
        if c <= prev:
            decays += 1
            ratio = min(c / prev if prev > 0.0 else 0.0, 0.999)
            tail = c * ratio / (1.0 - ratio)
            if decays >= 3 and tail <= tol and c <= tol:
                # geometric extrapolation of the remaining tail
                return total + v * ratio / (1.0 - ratio), err + tail, k + 1
        else:
            decays = 0
        prev = c
        d = d_next
    side = "upper" if at_hi else "lower"
    raise NonConvergence(
        f"integrand not integrable at tolerance {tol:.1e} near the open "
        f"{side} endpoint {endpoint!r}"
    )


def integrate(f: Callable[[float], float], iv: Interval, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Integrate ``f`` over ``iv`` to absolute tolerance ``tol`` (0 < tol < inf).

    The returned ``error_estimate`` is the honest accumulated estimate;
    values larger than ``tol`` can only occur via the relative floor of
    float64 on large integrals.  Raises NonConvergence when an open
    endpoint is not integrable (or the subdivision budget is exhausted).
    """
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    open_lo, open_hi = iv.open_ends
    a, b = iv.lo, iv.hi
    width = b - a
    delta = width / 8.0

    lo_edge = a + delta if open_lo else a
    hi_edge = b - delta if open_hi else b

    total = 0.0
    err = 0.0
    panels = 0
    if open_lo:
        v, e, n = _open_end_zone(f, a, delta, at_hi=False, tol=tol / 4.0)
        total += v
        err += e
        panels += n
    if open_hi:
        v, e, n = _open_end_zone(f, b, delta, at_hi=True, tol=tol / 4.0)
        total += v
        err += e
        panels += n
    v, e, n = _adaptive_closed(f, lo_edge, hi_edge, tol / 2.0)
    total += v
    err += e
    panels += n
    # every _gk15 panel evaluates f at its 15 Kronrod nodes
    return QuadratureResult(value=total, error_estimate=err, evaluations=15 * panels)


def derivative(
    f: Callable[[float], float],
    r: float,
    order: int,
    step_hint: float = 0.0,
    interval: Interval | None = None,
) -> float:
    """Central-difference derivative of ``f`` at ``r``.

    Step size h = max(step_hint, eps^(1/3) max(1,|r|)) for order 1 and the
    eps^(1/4) analogue for order 2; truncation error is O(h^2).  When an
    ``interval`` is supplied the stencil must keep a 2h margin inside it.
    """
    if order == 1:
        h = max(step_hint, EPS ** (1.0 / 3.0) * max(1.0, abs(r)))
    elif order == 2:
        h = max(step_hint, EPS**0.25 * max(1.0, abs(r)))
    else:
        raise ValueError(f"order must be 1 or 2, got {order}")
    if interval is not None:
        lo_ok = r - 2.0 * h > interval.lo if interval.open_ends[0] else r - 2.0 * h >= interval.lo
        hi_ok = r + 2.0 * h < interval.hi if interval.open_ends[1] else r + 2.0 * h <= interval.hi
        if not (lo_ok and hi_ok):
            raise DomainViolation(
                f"stencil of half-width 2h={2*h:.3e} at r={r!r} leaves "
                f"({interval.lo}, {interval.hi})"
            )
    if order == 1:
        return (f(r + h) - f(r - h)) / (2.0 * h)
    return (f(r + h) - 2.0 * f(r) + f(r - h)) / (h * h)

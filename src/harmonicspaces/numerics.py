"""Adaptive quadrature and the one finite-difference kernel.

Integration is one adaptive bisection with a nested 7/15 Gauss-Kronrod
rule per panel (Piessens et al., QUADPACK, 1983, without extrapolation).
All Kronrod nodes round strictly inside their panel, so an open endpoint
is never evaluated.  A panel next to an open end counts its whole value
as error, so an integrable end converges once that panel is small, and a
divergent one is halved until float64 cannot halve it and raises
:class:`NonConvergence`.  ``bisect`` runs it on many intervals in step;
``integrate`` and ``harmonic.phi0_numeric_grids`` are its two callers.
"""

import heapq
import math
import sys
from collections import namedtuple
from typing import Callable, NamedTuple

from .errors import DomainViolation, NonConvergence

EPS = sys.float_info.epsilon
_FLOAT_MAX = sys.float_info.max

#: Default absolute tolerance; downstream acceptance tolerances are >= 1e-8.
DEFAULT_TOL = 1e-10

# relative error floor: below ~100 eps no subdivision can help
_REL_FLOOR = 100.0 * EPS

_MAX_SPLITS = 4000

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


class Interval(namedtuple("Interval", ("lo", "hi", "open_ends"))):
    """An integration interval; ``open_ends`` marks endpoints where the
    integrand may be singular, so they are never evaluated."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float, open_ends: tuple[bool, bool] = (False, False)):
        if not (lo < hi):
            raise ValueError(f"interval requires lo < hi, got ({lo}, {hi})")
        return super().__new__(cls, lo, hi, open_ends)


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int


def _gk15_sum(fc, pair_sums, h):
    """(Kronrod value, |Kronrod - Gauss| error) from f at the centre and
    the sums f(c - h x) + f(c + h x) over the abscissae x of ``_XGK`` in
    turn, added in one fixed order; elementwise on numpy arrays."""
    resk = _WGK_CENTER * fc
    resg = _WG_CENTER * fc
    for j, s in enumerate(pair_sums):
        resk += _WGK[j] * s
        if j % 2 == 1:
            resg += _WG[j // 2] * s
    return resk * h, abs((resk - resg) * h)


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One 7/15 Gauss-Kronrod application on [a, b].

    Returns (kronrod value, |kronrod - gauss| error estimate).  f is called
    at the centre c first, then at c - h x and c + h x for each abscissa x
    of ``_XGK`` in turn.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    return _gk15_sum(f(c), [f(c - h * x) + f(c + h * x) for x in _XGK], h)


#: The 15 Kronrod nodes of the panel about c of half-width h are c + h * offset.
_OFFSETS = (0.0,) + tuple(s * x for x in _XGK for s in (-1.0, 1.0))


def gk15_panels(f, a, b):
    """``_gk15`` on each panel [a[i], b[i]] of two 1-D numpy arrays.

    f is called once, on the (15, n) array of all the nodes, and each
    panel's (value, error) pair is ``_gk15``'s for the same values of f, bit
    for bit: c + h * (-x) is c - h x.  Returns two arrays.
    """
    import numpy as np  # here, so that the float path does not load numpy

    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    values = f(c + h * np.array(_OFFSETS)[:, None])
    return _gk15_sum(values[0], values[1::2] + values[2::2], h)


def _nodes_inside(a, b):
    """True when the outermost nodes ``_gk15`` places round strictly inside
    [a, b]; elementwise on numpy arrays."""
    c = 0.5 * (a + b)
    dx = 0.5 * (b - a) * _XGK[0]
    return (a < c - dx) & (c + dx < b)


def converged(value, error, tol: float):
    """``integrate``'s stopping rule: ``value`` is finite and ``error`` is at
    most max(tol / 2, the relative floor of float64).

    Elementwise on numpy arrays; a NaN value or error never converges.
    """
    # tol / 2 is what closed intervals got when open ends had zones of
    # their own; keeping it keeps closed-interval results bit-identical
    size = abs(value)
    return (size <= _FLOAT_MAX) & ((error <= tol / 2.0) | (error <= _REL_FLOOR * size))


def integrate(f: Callable[[float], float], iv: Interval, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Integrate ``f`` over ``iv`` to absolute tolerance ``tol`` (0 < tol < inf).

    One adaptive bisection: the panel with the largest error estimate is
    halved until the summed estimate is below tol / 2 or the relative
    floor of float64.  No open end is ever evaluated, and a panel that
    touches one reports ``max(|K - G|, |K|)`` as its error, so its whole
    contribution stays in doubt until it is below tolerance.  Raises
    ValueError for a non-finite end of ``iv``, and NonConvergence when the
    total is not finite, when the worst panel can no longer be halved in
    float64 (how a divergent open end shows), when an interval with an open
    end is too narrow for the first panel, or after the subdivision budget.
    Exceptions raised by ``f`` propagate.
    """
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    a, b = iv.lo, iv.hi
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"interval ({a}, {b}) has a non-finite end")
    if any(iv.open_ends) and not _nodes_inside(a, b):
        raise NonConvergence(f"interval ({a}, {b}) is too narrow for nodes strictly inside it")
    v, e = _gk15(f, a, b)
    halves = lambda owner, los, his: zip(*[_gk15(f, lo, hi) for lo, hi in zip(los, his)])
    return bisect(halves, [(a, b, v, e, tol)], iv.open_ends)[0]


def bisect(panels, gaps, open_ends=(False, False)) -> list[QuadratureResult]:
    """``integrate``'s bisection on many intervals in step.

    Each gap is (a, b, value, error, tol): an interval, the GK15 value and
    error of its one panel, and the tolerance of ``converged``.  Each pass
    pops the worst panel of every gap still above tolerance and evaluates
    all the halves in one call ``panels(owner, los, his)``, which returns
    their values and errors: each gap's left half and then its right one,
    gap after gap, ``owner`` giving each half's gap by index, so the owners
    of a pass never decrease.  ``open_ends`` holds for every gap.  Returns
    a QuadratureResult per gap; ``integrate``'s NonConvergence names the
    first gap, in pass order, that fails.
    """
    work = []
    for a, b, v, e, tol in gaps:
        if any(open_ends):
            # a panel touching an open end counts its whole value as error
            e = max(e, abs(v))
        work.append([a, b, tol, v, e, [(-e, a, b, v)]])
    active, splits = range(len(work)), 0
    while True:
        owner, popped = [], []
        for i in active:
            a, b, tol, total_v, total_e, heap = work[i]
            if not math.isfinite(total_v):
                # the running sum never returns from inf or nan
                raise NonConvergence(f"integral over [{a}, {b}] is not finite: {total_v!r}")
            if converged(total_v, total_e, tol):
                # the slot takes the result; each panel is 15 evaluations
                work[i] = QuadratureResult(total_v, total_e, evaluations=15 * (1 + 2 * splits))
                continue
            if splits == _MAX_SPLITS:
                raise NonConvergence(
                    f"error estimate {total_e:.3e} above tolerance after "
                    f"{_MAX_SPLITS} subdivisions on [{a}, {b}]"
                )
            neg_e0, a0, b0, v0 = heapq.heappop(heap)
            m = 0.5 * (a0 + b0)
            if not (_nodes_inside(a0, m) and _nodes_inside(m, b0)):
                raise NonConvergence(
                    f"error estimate {-neg_e0:.3e} on the panel [{a0!r}, {b0!r}] of "
                    f"[{a}, {b}] cannot be reduced: float64 cannot halve the panel"
                )
            owner.append(i)
            popped.append((neg_e0, a0, m, b0, v0))
        if not owner:
            return work
        los = [x for _, a0, m, _, _ in popped for x in (a0, m)]
        his = [x for _, _, m, b0, _ in popped for x in (m, b0)]
        values, errors = panels([i for i in owner for _ in (0, 1)], los, his)
        halves = zip(owner, popped, values[0::2], values[1::2], errors[0::2], errors[1::2])
        for i, (neg_e0, a0, m, b0, v0), v1, v2, e1, e2 in halves:
            a, b, _, total_v, total_e, heap = work[i]
            if open_ends[0] and a0 == a:
                e1 = max(e1, abs(v1))
            if open_ends[1] and b0 == b:
                e2 = max(e2, abs(v2))
            heapq.heappush(heap, (-e1, a0, m, v1))
            heapq.heappush(heap, (-e2, m, b0, v2))
            work[i][3:5] = total_v + (v1 + v2 - v0), total_e + (e1 + e2 + neg_e0)
        active, splits = owner, splits + 1


#: derivative's step relative to max(1, |r|), per order; order 2's is the wider
_STEP = {1: EPS ** (1.0 / 3.0), 2: 2.0 * EPS**0.25}


def _richardson(samples, h, order: int):
    """(4 D(h) - D(2h)) / 3 from the samples of f at r + h, r - h, r + 2h,
    r - 2h, with f(r) first for order 2; elementwise on arrays."""
    if order == 1:
        f1, f_1, f2, f_2 = samples
        d_h = (f1 - f_1) / (2.0 * h)
        d_2h = (f2 - f_2) / (4.0 * h)
    else:
        f0, f1, f_1, f2, f_2 = samples
        d_h = (f1 - 2.0 * f0 + f_1) / (h * h)
        d_2h = (f2 - 2.0 * f0 + f_2) / (4.0 * h * h)
    return (4.0 * d_h - d_2h) / 3.0


def _stencil_inside(r, h, iv: Interval):
    """Whether the widest stencil r +- 4h lies inside ``iv``; elementwise on arrays."""
    lo_ok = r - 4.0 * h > iv.lo if iv.open_ends[0] else r - 4.0 * h >= iv.lo
    hi_ok = r + 4.0 * h < iv.hi if iv.open_ends[1] else r + 4.0 * h <= iv.hi
    return lo_ok & hi_ok


def stencil_nearest(r: float, iv: Interval) -> float:
    """The float nearest r at which ``derivative`` of either order keeps its
    stencil inside ``iv``: r itself when it does.  r - 4h and r + 4h grow
    with r, so the accepted r form an interval, and a bisection between r
    and the midpoint of iv (which must be accepted) ends at its edge."""
    inside = lambda x: _stencil_inside(x, _STEP[2] * max(1.0, abs(x)), iv)
    good, bad = iv.lo / 2.0 + min(iv.hi, _FLOAT_MAX) / 2.0, r
    if inside(r):
        return r
    while (mid := good + (bad - good) / 2.0) not in (good, bad):
        good, bad = (mid, bad) if inside(mid) else (good, mid)
    return good


def _stencil_outside(r: float, h: float, iv: Interval) -> DomainViolation:
    return DomainViolation(
        f"stencil of half-width 4h={4*h:.3e} at r={r!r} leaves ({iv.lo}, {iv.hi})"
    )


def _overflow(r: float, result: float) -> OverflowError:
    return OverflowError(
        f"derivative at r={r!r} overflows float64 from finite samples: {result!r}"
    )


def derivative(
    f: Callable[[float], float],
    r,
    order: int,
    interval: Interval | None = None,
):
    """Richardson-extrapolated central-difference derivative of ``f`` at ``r``.

    The step is h = eps^(1/3) max(1,|r|) for order 1 and 2 eps^(1/4)
    max(1,|r|) for order 2, doubled because long closed forms carry term
    cancellation noise well above eps*|f| and /h^2 amplifies it.  The
    result (4 D(h) - D(2h)) / 3 of central differences D has truncation
    error O(h^4).  When an ``interval`` is supplied the widest stencil,
    r +- 4h, must lie inside it.  OverflowError when every sample of ``f``
    is finite but the result is not; a non-finite sample passes through.

    ``r`` may be a 1-D numpy array instead of a float.  Then ``f`` is called
    once, on the stacked stencils of all points (shape (4, n), or (5, n)
    for order 2), and the result is the array of what each float gives, bit
    for bit.  The DomainViolation and the OverflowError are those of the
    first point that fails, as its float call words them.
    """
    if order not in _STEP:
        raise ValueError(f"order must be 1 or 2, got {order}")
    step = _STEP[order]
    if getattr(r, "ndim", 0) == 0:  # a float, or a numpy scalar
        h = step * max(1.0, abs(r))
        if interval is not None and not _stencil_inside(r, h, interval):
            raise _stencil_outside(r, h, interval)
        if order == 1:
            samples = f(r + h), f(r - h), f(r + 2.0 * h), f(r - 2.0 * h)
        else:
            samples = f(r), f(r + h), f(r - h), f(r + 2.0 * h), f(r - 2.0 * h)
        result = _richardson(samples, h, order)
        if not math.isfinite(result) and all(map(math.isfinite, samples)):
            raise _overflow(r, result)
        return result

    import numpy as np  # here, so that the float path does not load numpy

    r = np.asarray(r, dtype=float)
    h = step * np.maximum(1.0, np.abs(r))
    if interval is not None:
        inside = _stencil_inside(r, h, interval)
        if not inside.all():
            i = int(np.argmin(inside))
            raise _stencil_outside(float(r[i]), float(h[i]), interval)
    if order == 1:
        stencil = r + h, r - h, r + 2.0 * h, r - 2.0 * h
    else:
        stencil = r, r + h, r - h, r + 2.0 * h, r - 2.0 * h
    samples = f(np.stack(stencil))
    with np.errstate(over="ignore", invalid="ignore"):
        result = _richardson(samples, h, order)
    bad = ~np.isfinite(result) & np.isfinite(samples).all(axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        raise _overflow(float(r[i]), float(result[i]))
    return result

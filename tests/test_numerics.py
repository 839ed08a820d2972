import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonicspaces.errors import DomainViolation, NonConvergence
from harmonicspaces.numerics import (
    DEFAULT_TOL,
    EPS,
    Interval,
    QuadratureResult,
    converged,
    derivative,
    integrate,
)


def test_interval_requires_ordering():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)


def test_integrate_sin_closed():
    res = integrate(math.sin, Interval(0.0, math.pi))
    assert res.value == pytest.approx(2.0, abs=1e-10)
    assert res.error_estimate >= 0.0
    assert res.evaluations >= 1


def test_integrate_csc_squared():
    # antiderivative of csc^2 is -cot; -cot(pi/2) + cot(pi/4) = 1
    res = integrate(lambda x: 1.0 / math.sin(x) ** 2, Interval(math.pi / 4, math.pi / 2))
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_integrate_divergent_endpoint_raises():
    iv = Interval(math.pi - 0.1, math.pi, (False, True))
    with pytest.raises(NonConvergence):
        integrate(lambda r: (math.pi - r) ** (-3.0), iv)


def test_infinite_total_is_not_converged():
    # 1e308 / x overflows to inf near 0; an infinite total must not pass
    # the tolerance test through its relative floor
    with pytest.raises(NonConvergence, match="not finite"):
        integrate(lambda x: 1e308 / x, Interval(1e-10, 1.0))


def test_integrate_log_divergence_raises():
    # 1/(pi - r) diverges logarithmically; still not integrable
    iv = Interval(math.pi - 0.1, math.pi, (False, True))
    with pytest.raises(NonConvergence):
        integrate(lambda r: 1.0 / (math.pi - r), iv)


def test_integrate_open_ends_bounded_integrand():
    res = integrate(math.sin, Interval(0.0, math.pi, (True, True)))
    assert res.value == pytest.approx(2.0, abs=2e-10)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
def test_integrate_mild_endpoint_singularity(alpha):
    # x^(-alpha) on (0, 1/2] is integrable despite the blowup at 0; the
    # panel next to 0 converges once its whole value is below tolerance
    res = integrate(lambda x: x ** (-alpha), Interval(0.0, 0.5, (True, False)), tol=1e-8)
    assert res.value == pytest.approx(0.5 ** (1.0 - alpha) / (1.0 - alpha), abs=1e-8)


def test_integrate_never_touches_open_endpoints():
    pi = math.pi
    # (integrand on (0, pi), expected value or exception); the singular
    # cases sit at either end
    cases = [
        (math.sin, 2.0),
        (lambda x: x**-0.5, 2.0 * math.sqrt(pi)),
        # alpha = 1/2 at a unit-scale end: float64 cannot place panels
        # close enough to pi for the tolerance
        (lambda x: (pi - x) ** -0.5, NonConvergence),
        (lambda x: 1.0 / x, NonConvergence),
        (lambda x: 1.0 / (pi - x), NonConvergence),
        # the integrand's own overflow propagates
        (lambda x: x**-3.0, OverflowError),
        (lambda x: (pi - x) ** -3.0, NonConvergence),
    ]
    for g, expected in cases:
        def f(x, g=g):
            assert 0.0 < x < pi
            return g(x)

        if isinstance(expected, float):
            res = integrate(f, Interval(0.0, pi, (True, True)))
            assert res.value == pytest.approx(expected, abs=1e-10)
        else:
            with pytest.raises(expected):
                integrate(f, Interval(0.0, pi, (True, True)))

    # too narrow for the first panel's nodes to round strictly inside
    def narrow(x):
        assert 1.0 < x < 1.0 + 1e-14
        return 1.0

    with pytest.raises(NonConvergence, match="too narrow"):
        integrate(narrow, Interval(1.0, 1.0 + 1e-14, (True, True)))


def test_invalid_tol():
    # NaN fails every comparison, so only a check of the form 0 < tol < inf
    # rejects it
    for tol in (0.0, -1e-10, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            integrate(math.sin, Interval(0.0, 1.0), tol=tol)


def test_non_finite_end_is_a_value_error():
    # named before the width check, which would call (0, inf) too narrow
    for iv in (
        Interval(0.0, math.inf, (True, False)),
        Interval(-math.inf, 0.0),
        Interval(0.0, math.inf),
    ):
        with pytest.raises(ValueError, match="non-finite end"):
            integrate(math.exp, iv)


@pytest.mark.parametrize(
    "f, iv",
    [
        (lambda x: 1.0 / math.sin(x) ** 2, Interval(0.1, 1.5)),
        (lambda x: x ** (-0.25), Interval(0.0, 1.0, (True, False))),
        (math.sin, Interval(0.0, math.pi, (True, True))),
    ],
)
def test_evaluations_match_integrand_calls(f, iv):
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return f(x)

    res = integrate(counted, iv, tol=1e-8)
    assert calls > 15
    assert res.evaluations == calls


@settings(max_examples=40, deadline=None)
@given(
    coeffs_f=st.lists(st.floats(-8, 8), min_size=1, max_size=5),
    coeffs_g=st.lists(st.floats(-8, 8), min_size=1, max_size=5),
    alpha=st.floats(-4, 4),
    beta=st.floats(-4, 4),
)
def test_linearity_on_polynomials(coeffs_f, coeffs_g, alpha, beta):
    iv = Interval(0.3, 2.1)
    f = lambda x: sum(c * x**i for i, c in enumerate(coeffs_f))
    g = lambda x: sum(c * x**i for i, c in enumerate(coeffs_g))
    combined = integrate(lambda x: alpha * f(x) + beta * g(x), iv).value
    split = alpha * integrate(f, iv).value + beta * integrate(g, iv).value
    assert abs(combined - split) <= 10.0 * DEFAULT_TOL + 1e-12 * abs(split)


@settings(max_examples=30, deadline=None)
@given(b=st.floats(0.6, 2.4))
def test_interval_additivity(b):
    f = lambda x: math.exp(-x) * math.cos(3.0 * x)
    whole = integrate(f, Interval(0.5, 2.5)).value
    parts = integrate(f, Interval(0.5, b)).value + integrate(f, Interval(b, 2.5)).value
    assert abs(whole - parts) <= 10.0 * DEFAULT_TOL


def test_derivative_of_integral_recovers_integrand():
    f = lambda x: math.cos(x) * math.exp(0.3 * x)
    F = lambda x: integrate(f, Interval(0.5, x)).value
    for r in (1.0, 1.7, 2.4):
        assert derivative(F, r, 1) == pytest.approx(f(r), abs=1e-6)


def test_derivative_first_order():
    assert derivative(math.sin, 0.0, 1) == pytest.approx(1.0, abs=1e-9)


def test_derivative_second_order():
    assert derivative(lambda x: x * x, 3.0, 2) == pytest.approx(2.0, abs=1e-6)


def test_derivative_cot():
    cot = lambda x: math.cos(x) / math.sin(x)
    # d/dr cot = -csc^2; csc^2(pi/4) = 2
    assert derivative(cot, math.pi / 4, 1) == pytest.approx(-2.0, abs=1e-7)


def test_derivative_order_validation():
    with pytest.raises(ValueError):
        derivative(math.sin, 1.0, 3)


def test_derivative_guards_the_widest_stencil():
    # the Richardson pair reaches r +- 2h; the guard keeps r +- 4h inside
    iv = Interval(0.0, 1.0, (True, True))
    h = EPS ** (1.0 / 3.0)
    with pytest.raises(DomainViolation):
        derivative(math.sin, 3.0 * h, 1, interval=iv)
    assert derivative(math.sin, 5.0 * h, 1, interval=iv) == pytest.approx(1.0, abs=1e-9)


def test_derivative_is_fourth_order():
    # a plain central difference of r^-148 at 0.3 errs by 1.5e-06 relative
    f = lambda r: r**-148
    exact = -148.0 * 0.3**-149
    assert abs(derivative(f, 0.3, 1) - exact) <= 1e-10 * abs(exact)


def test_derivative_overflow_from_finite_samples():
    # every sample of r^-588/-588 near 0.3 is finite, but 4 D(h) is not
    f = lambda r: r**-588 / -588.0
    with pytest.raises(OverflowError, match="derivative at r=0.3 overflows float64"):
        derivative(f, 0.3, 1)
    # a non-finite sample is the function's own value, and passes through
    assert math.isnan(derivative(lambda r: math.nan, 0.5, 1))
    assert math.isnan(derivative(lambda r: math.inf, 0.5, 2))


def test_derivative_stencil_domain_check():
    iv = Interval(0.0, 1.0, (True, True))
    with pytest.raises(DomainViolation):
        derivative(math.sin, 1e-9, 1, interval=iv)
    # comfortably interior is fine
    derivative(math.sin, 0.5, 1, interval=iv)


_ARITHMETIC = [
    # +, -, *, / round the same on floats and numpy arrays
    lambda x: x * x * x - 3.0 * x,
    lambda x: (x * x - 3.0) / (x + 0.25),
    lambda x: 1.0 / (x * x),
]


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("f", _ARITHMETIC)
def test_derivative_on_an_array_is_the_float_calls_bit_for_bit(f, order):
    rs = [0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 2.7, 7.25, 1e3]
    for interval in (None, Interval(0.0, 2e3, (True, True))):
        got = derivative(f, np.array(rs), order, interval=interval)
        assert got.tolist() == [derivative(f, r, order, interval=interval) for r in rs]


def test_derivative_calls_f_once_on_the_stacked_stencil():
    shapes = []

    def f(x):
        shapes.append(x.shape)
        return np.sin(x)

    derivative(f, np.linspace(0.5, 1.5, 7), 1)
    derivative(f, np.linspace(0.5, 1.5, 7), 2)
    assert shapes == [(4, 7), (5, 7)]


def _error_text(call):
    with pytest.raises((DomainViolation, OverflowError)) as exc:
        call()
    return type(exc.value), str(exc.value)


def test_derivative_on_an_array_raises_what_the_first_failing_float_raises():
    # the stencil guard: 1e-9 is the first point whose r +- 4h leaves (0, 1)
    iv = Interval(0.0, 1.0, (True, True))
    rs = [0.5, 1e-9, 0.9999999]
    assert _error_text(lambda: derivative(math.sin, 1e-9, 1, interval=iv)) == _error_text(
        lambda: derivative(np.sin, np.array(rs), 1, interval=iv)
    )
    # finite samples, non-finite result: 4 D(h) of 1e307 x^2 overflows from x = 2.25
    f = lambda x: 1e307 * x * x
    rs = [0.5, 1.0, 2.5, 3.0]
    assert _error_text(lambda: derivative(f, 2.5, 1)) == _error_text(
        lambda: derivative(f, np.array(rs), 1)
    )
    assert [derivative(f, r, 1) for r in rs[:2]] == derivative(f, np.array(rs[:2]), 1).tolist()


def test_derivative_on_an_array_passes_non_finite_samples_through():
    g = lambda x: np.where(x > 0.6, math.nan, x * x)
    got = derivative(g, np.array([0.5, 0.7]), 1)
    assert got[0] == derivative(lambda x: x * x, 0.5, 1)
    assert math.isnan(got[1])


def test_quadrature_result_fields():
    res = integrate(math.sin, Interval(0.0, 1.0))
    assert isinstance(res, QuadratureResult)
    assert res.evaluations >= 15


def test_converged_is_one_rule_for_scalars_and_arrays():
    # the stopping rule as integrate wrote it inline, applied elementwise
    tol = 1e-10
    values = [1.0, 1e7, -1e7, 0.0, math.inf, -math.inf, math.nan, 1e300]
    errors = [4e-11, 6e-11, 1e-9, 1e-6, math.nan, 0.0]
    pairs = [(v, e) for v in values for e in errors]

    def reference(v, e):
        return math.isfinite(v) and e <= max(tol / 2.0, 100.0 * EPS * abs(v))

    expected = [reference(v, e) for v, e in pairs]
    assert [converged(v, e, tol) for v, e in pairs] == expected
    v, e = np.array(pairs).T
    assert converged(v, e, tol).tolist() == expected

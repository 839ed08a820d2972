"""Acceptance suite: one test per criterion, each printing a verdict line.

Residual conventions: comparisons against oracle values use scaled
residuals |x - y| / max(1, |x|, |y|), which equal the absolute residual
whenever the quantities are of order one (see TableVerification).
"""

import math

import numpy as np
import pytest

from harmonicspaces import harmonic, quotients, topology, verify
from harmonicspaces.errors import NonConvergence
from harmonicspaces.harmonic import BoundaryBehavior
from harmonicspaces.numerics import Interval, integrate
from harmonicspaces.spaces import (
    DensityProfile,
    domain_end,
    model_volume,
    parse_model_id,
    positive_curvature_catalogue,
)
from quotient_helpers import (
    flat_extension_domain,
    flat_extension_is_radial,
    flat_extension_reflection_symmetric,
    flat_harmonic_residual,
    klein_fundamental_region,
    lens_domain_volume_mc,
)

ALL_ROWS = [parse_model_id(mid) for mid in verify.TABLE_IDS]


@pytest.fixture(scope="module")
def table_results():
    return {m.model_id: res for m, res in zip(ALL_ROWS, verify.table_checks(ALL_ROWS))}


def _report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_table_fidelity(table_results):
    # every row verifies as transcribed, hS5 and hHP3 included
    failures = [r for r in table_results.values() if r.status != "PASS"]
    assert not failures, f"table disagreements: {failures}"
    print(f"  rows checked: {len(table_results)}")
    _report(1, "table fidelity, 26 rows, ode<=1e-12 match<=1e-8")


def test_criterion_1_residual_tolerances():
    # re-assert the stated numeric tolerances row by row
    assert (harmonic.ODE_TOLERANCE, harmonic.MATCH_TOLERANCE) == (1e-12, 1e-8)
    for model in ALL_ROWS:
        res = harmonic.verify_table_entry(model)
        assert res.max_ode_residual <= harmonic.ODE_TOLERANCE, (model.model_id, res)
        assert res.max_match_residual <= harmonic.MATCH_TOLERANCE, (model.model_id, res)
    _report(1, "tolerances pinned at 1e-12 / 1e-8")


def test_criterion_2_harmonicity():
    worst = 0.0
    for model in ALL_ROWS:
        f = lambda r: harmonic.phi0_closed(model, r)
        for r in harmonic.verification_grid(model):
            worst = max(worst, harmonic.harmonicity_residual(model, f, r))
    assert worst <= 1e-5, worst
    print(f"  max scaled laplacian residual: {worst:.3e}")
    _report(2, "harmonicity residual <= 1e-5 on every row")


def test_criterion_3_injectivity_oracles():
    rng = np.random.default_rng(42)
    torus = quotients.TorusGroup()
    for _ in range(20):
        p = rng.uniform(-1.0, 1.0, size=2)
        assert abs(quotients.injectivity_radius(torus, p).radius - 0.5) <= 1e-12

    klein = quotients.KleinGroup()
    sweep = [0.05 * i for i in range(41)] + [0.25, 1.0]
    for a in sweep:
        brute = quotients.injectivity_radius(klein, (0.0, a)).radius
        assert abs(brute - quotients.klein_injectivity_closed(a)) <= 1e-12
    assert abs(quotients.klein_injectivity_closed(0.0) - 0.5) <= 1e-12
    assert abs(quotients.klein_injectivity_closed(0.25) - 0.559016994374947) <= 1e-12
    assert abs(quotients.klein_injectivity_closed(1.0) - 1.0) <= 1e-12

    for m in (2, 3, 4):
        rp = quotients.AntipodalGroup(m=m)
        e1 = np.zeros(m + 1)
        e1[0] = 1.0
        assert abs(quotients.injectivity_radius(rp, e1).radius - math.pi / 2) <= 1e-12

    lens = quotients.LensGroup()
    assert (
        abs(quotients.injectivity_radius(lens, lens.basepoint()).radius - math.pi / 4)
        <= 1e-12
    )
    cpq = quotients.CPInvolutionGroup()
    assert (
        abs(quotients.injectivity_radius(cpq, cpq.basepoint()).radius - math.pi / 4)
        <= 1e-12
    )
    _report(3, "brute-force injectivity equals closed forms within 1e-12")


def _probe_diverges(model):
    """Quadrature reference for the far-end verdict: phi1 on (D - 0.1, D)
    at tol 1e-8 raises NonConvergence when phi0 blows up at the cut locus."""
    end = domain_end(model)
    try:
        integrate(
            lambda r: harmonic.phi1(model, r),
            Interval(end - 0.1, end, (False, True)),
            tol=1e-8,
        )
    except NonConvergence:
        return True
    return False


def test_criterion_4_boundary_classification():
    for model in positive_curvature_catalogue():
        cls = harmonic.classify_boundary(model)
        assert cls.at_far_end is BoundaryBehavior.DIVERGENT, model.model_id
        assert cls.at_origin is BoundaryBehavior.DIVERGENT
        divergent = cls.at_far_end is BoundaryBehavior.DIVERGENT
        assert _probe_diverges(model) == divergent, model.model_id
    # the NonConvergence path itself
    with pytest.raises(NonConvergence):
        integrate(
            lambda r: (math.pi - r) ** (-3.0),
            Interval(math.pi - 0.1, math.pi, (False, True)),
        )
    _report(4, "far end divergent for every compact model")


def test_criterion_4_order_zero_far_end_is_extendable():
    # a synthetic density that does not vanish at pi/2: phi1 is integrable
    # there, and the boundary check must reject the model
    model = parse_model_id("CP2")
    model.__dict__["density"] = DensityProfile(3, 0, 1, math.pi / 2)
    assert harmonic.classify_boundary(model).at_far_end is BoundaryBehavior.EXTENDABLE
    assert not _probe_diverges(model)
    [res] = verify.boundary_checks([model])
    assert res.status == "FAIL"
    assert res.details == "far_end=extendable"


def test_criterion_5_volumes():
    for m in range(2, 9):
        exact = 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)
        got = model_volume(parse_model_id(f"S{m}"))
        assert abs(got - exact) / exact <= 1e-9, (m, got, exact)
    cp1 = model_volume(parse_model_id("CP1"))
    assert abs(cp1 - math.pi) / math.pi <= 1e-9
    _report(5, "sphere volumes within 1e-9 relative; vol(CP1) = pi")


def test_criterion_6_bound_ratios():
    expectations = {
        "hS4": 2, "hS6": 2, "hS8": 2,
        "hCP2": 3, "hCP3": 4, "hCP4": 5,
        "hHP2": 3, "hHP3": 4, "hHP4": 5,
        "hOP2": 3,
    }
    for mid, chi in expectations.items():
        rep = topology.volume_bounds(parse_model_id(mid))
        assert rep.euler == chi
        assert rep.gb_bound == rep.dual_volume / chi
    hop2 = topology.volume_bounds(parse_model_id("hOP2"))
    assert any("bound_statement_discrepancy" in n for n in hop2.notes)
    for mid in ("hCP2", "hHP2", "hOP2"):
        model = parse_model_id(mid)
        orientable = topology.volume_bounds(model, orientable=True)
        flipped = topology.volume_bounds(model, orientable=False)
        assert orientable.epsilon == 1.0
        assert orientable.sig_bound == orientable.dual_volume
        assert flipped.epsilon == 0.5
        assert flipped.sig_bound == 0.5 * flipped.dual_volume
    _report(6, "gauss-bonnet ratios 1/chi exact; signature factors {1, 1/2}")


def test_criterion_7_quotient_domains():
    rng = np.random.default_rng(42)

    torus = quotients.TorusGroup()
    qs = rng.uniform(-1.5, 1.5, size=(1000, 2))
    regions = quotients.classify_points(torus, np.zeros(2), qs, tol=1e-9)
    checked = 0
    for q, region in zip(qs, regions):
        if region is quotients.Region.BOUNDARY:
            continue
        analytic = abs(q[0]) < 0.5 and abs(q[1]) < 0.5
        assert analytic == (region is quotients.Region.INTERIOR), q
        checked += 1
    assert checked >= 990

    a = 0.25
    klein = quotients.KleinGroup()
    qs = rng.uniform(-2.0, 2.0, size=(1000, 2))
    regions = quotients.classify_points(klein, np.array([0.0, a]), qs, tol=1e-9)
    checked = 0
    for q, region in zip(qs, regions):
        if region is quotients.Region.BOUNDARY:
            continue
        analytic = klein_fundamental_region(a, q)
        assert analytic == (region is quotients.Region.INTERIOR), q
        checked += 1
    assert checked >= 990

    area = quotients.fundamental_domain_area(torus, np.zeros(2), 400)
    assert abs(area - 1.0) <= 2.0 / 400.0

    vol, stderr = lens_domain_volume_mc()
    exact = math.pi**2 / 2.0
    assert abs(vol - exact) <= 3.0 * stderr
    print(f"  torus area: {area!r}; lens MC: {vol:.4f} +- {stderr:.4f} (exact {exact:.4f})")
    _report(7, "domain predicates, covering area, lens Monte Carlo volume")


def test_criterion_8_flat_radial_extension():
    rng = np.random.default_rng(42)
    for delta in (0.3, 0.5):
        lo, hi = flat_extension_domain(delta)
        worst = 0.0
        count = 0
        while count < 200:
            q = rng.uniform(lo + 5e-3, hi - 5e-3, size=2)
            if np.hypot(q[0], q[1]) < 0.05:
                continue
            worst = max(worst, flat_harmonic_residual(delta, q))
            count += 1
        assert worst <= 1e-6, (delta, worst)
    assert flat_extension_is_radial(0.5)
    assert not flat_extension_is_radial(0.3)
    assert flat_extension_reflection_symmetric(0.5)
    assert not flat_extension_reflection_symmetric(0.3)
    _report(8, "extension harmonic (<=1e-6); radial iff delta = 1/2")


def test_criterion_9_group_selfchecks():
    lens_report = quotients.group_action_selfcheck(
        quotients.LensGroup(), samples=10_000, seed=42
    )
    assert "T4_identity" in lens_report.checks
    assert "T2_antipodal" in lens_report.checks

    cp_report = quotients.group_action_selfcheck(
        quotients.CPInvolutionGroup(), samples=10_000, seed=42
    )
    assert "involution_projective" in cp_report.checks
    assert cp_report.min_sampled_displacement is not None
    assert cp_report.min_sampled_displacement > 0.1
    print(f"  cp involution min displacement: {cp_report.min_sampled_displacement:.4f}")
    _report(9, "lens T^4=id, T^2=-id; cp involution fixed-point free")


def test_criterion_10_topology_catalogue():
    chi_sign = {
        "S2": (2, None), "S4": (2, 0), "S6": (2, None), "S8": (2, 0),
        "CP2": (3, 1), "CP3": (4, None), "CP4": (5, 1),
        "HP2": (3, 1), "HP3": (4, 0), "HP4": (5, 1),
        "OP2": (3, 1),
    }
    for mid, (chi, sig) in chi_sign.items():
        model = parse_model_id(mid)
        assert topology.euler_characteristic(model) == chi, mid
        assert topology.signature(model) == sig, mid
    for mid in ("CP2", "CP4", "HP2", "HP4", "OP2"):
        assert topology.allowed_group_orders(parse_model_id(mid)) == {1}, mid
    for mid in ("CP3", "S2", "S4", "S6", "S8"):
        assert topology.allowed_group_orders(parse_model_id(mid)) == {1, 2}, mid
    _report(10, "characteristic numbers and allowed group orders")

"""Aggregated verification suite behind the `verify` CLI command.

Every check is PASS/WARN/FAIL, and each has one verdict path.  A table row
passes when its closed form agrees with both quadrature oracles, and fails
otherwise.  A compact model's far end must be divergent, as read from the
vanishing order of its density.  Brute-force injectivity radii must equal
``quotients.injectivity_radius_closed``.  WARN is kept for permanent
advisory notes; the suite fails only on disagreement.
"""

from typing import NamedTuple

import numpy as np

from . import harmonic, quotients, topology
from .errors import SelfCheckFailed, UsageError
from .harmonic import BoundaryBehavior
from .quotients import DEFAULT_SEED, make_group
from .spaces import SpaceModel, parse_model_id, positive_curvature_catalogue


class CheckResult(NamedTuple):
    name: str
    status: str  # PASS | WARN | FAIL
    details: str

    def line(self) -> str:
        return f"{self.status:<4} {self.name}: {self.details}"


def _table_result(res: harmonic.TableVerification) -> CheckResult:
    detail = (
        f"ode_residual={res.max_ode_residual:.3e} "
        f"match_residual={res.max_match_residual:.3e}"
    )
    return CheckResult(f"table {res.model_id}", "PASS" if res.passed else "FAIL", detail)


#: The table rows: every transcribed closed form, then the flat family.
TABLE_IDS = (*harmonic.CLOSED_FORMS, "E2", "E3", "E4", "E5")


def table_checks(models: list[SpaceModel] | None = None) -> list[CheckResult]:
    if models is None:
        models = [parse_model_id(mid) for mid in TABLE_IDS]
    return [_table_result(res) for res in harmonic.verify_table_entries(models)]


def boundary_checks(models: list[SpaceModel] | None = None) -> list[CheckResult]:
    """Every compact catalogue model must have a divergent far end."""
    if models is None:
        models = positive_curvature_catalogue()
    out = []
    for m in models:
        cls = harmonic.classify_boundary(m)
        ok = cls.at_far_end is BoundaryBehavior.DIVERGENT
        out.append(
            CheckResult(
                f"boundary {m.model_id}",
                "PASS" if ok else "FAIL",
                f"far_end={cls.at_far_end.value}",
            )
        )
    return out


def group_checks(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    out = []
    for gid in quotients.GROUPS:
        group = make_group(gid)
        try:
            report = quotients.group_action_selfcheck(group, samples=2000, seed=seed)
            extra = (
                f" min_displacement={report.min_sampled_displacement:.4f}"
                if report.min_sampled_displacement is not None
                else ""
            )
            out.append(
                CheckResult(
                    f"group {gid}", "PASS", ",".join(report.checks) + extra
                )
            )
        except SelfCheckFailed as exc:
            out.append(CheckResult(f"group {gid}", "FAIL", str(exc)))
    return out


def _radius_gaps(group: quotients.DeckGroup, points) -> np.ndarray:
    """|brute-force - closed-form| injectivity radius at each row of
    ``points``, with the brute-force minima from one ``orbit_distances`` call.

    Each point is displaced as it stands: on the flat groups the
    displacement does not depend on the coordinates along
    ``translation_axes``, so no point is first moved to 0.
    """
    _, d_min, _ = quotients.orbit_distances(group, points, points)
    closed = [quotients.injectivity_radius_closed(group, p) for p in points]
    return np.abs(0.5 * d_min - closed)


def injectivity_checks(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Brute-force orbit minima against the closed forms."""
    torus_points = quotients.SeededStream(seed).uniform(-1.0, 1.0, (20, 2))
    klein_points = [(0.0, 0.05 * i) for i in range(41)]
    worst_torus = float(_radius_gaps(quotients.TorusGroup(), torus_points).max())
    worst_klein = float(_radius_gaps(quotients.KleinGroup(), klein_points).max())
    rows = [
        ("torus", worst_torus, f"max |brute - 1/2| = {worst_torus:.2e} over 20 basepoints"),
        ("klein", worst_klein, f"max |brute - closed| = {worst_klein:.2e} over a in 0..2"),
    ]
    for gid in ("rp", "lens", "cpq"):
        group = make_group(gid)
        got = quotients.injectivity_radius(group, group.basepoint()).radius
        expected = quotients.injectivity_radius_closed(group, group.basepoint())
        rows.append((gid, abs(got - expected), f"brute={got!r} expected={expected!r}"))
    return [
        CheckResult(f"injectivity {gid}", "PASS" if gap <= 1e-12 else "FAIL", detail)
        for gid, gap, detail in rows
    ]


_LEMMA_TABLE = {
    # model id: (euler, signature or None)
    "S2": (2, None),
    "S4": (2, 0),
    "S6": (2, None),
    "S8": (2, 0),
    "CP2": (3, 1),
    "CP3": (4, None),
    "CP4": (5, 1),
    "HP2": (3, 1),
    "HP3": (4, 0),
    "HP4": (5, 1),
    "OP2": (3, 1),
}


def topology_checks() -> list[CheckResult]:
    out = []
    for mid, (chi, sig) in _LEMMA_TABLE.items():
        model = parse_model_id(mid)
        got_chi = topology.euler_characteristic(model)
        got_sig = topology.signature(model)
        ok = got_chi == chi and got_sig == sig
        out.append(
            CheckResult(
                f"topology {mid}",
                "PASS" if ok else "FAIL",
                f"chi={got_chi} sign={got_sig}",
            )
        )
    out.append(
        CheckResult(
            "topology hOP2 bound note",
            "WARN",
            topology.OP2_STATEMENT_NOTE,
        )
    )
    return out


def run_all(scope: str = "all", seed: int = DEFAULT_SEED) -> list[CheckResult]:
    if scope != "all":
        model = parse_model_id(scope)
        results = table_checks([model]) if harmonic.has_closed_form(model) else []
        if model.curvature_sign == 1:
            results += boundary_checks([model])
        if not results:
            raise UsageError(f"nothing to verify for {scope!r}")
        return results
    results = table_checks()
    results += boundary_checks()
    results += injectivity_checks(seed=seed)
    results += group_checks(seed=seed)
    results += topology_checks()
    return results

"""Aggregated verification suite behind the `verify` CLI command.

Every check is PASS/WARN/FAIL, and each has one verdict path.  A table row
passes when its closed form agrees with both quadrature oracles, and fails
otherwise.  A compact model's far end must be divergent, as read from the
vanishing order of its density.  Brute-force injectivity radii must equal
``quotients.injectivity_radius_closed``.  WARN is kept for permanent
advisory notes; the suite fails only on disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import harmonic, quotients, topology
from .errors import SelfCheckFailed
from .harmonic import BoundaryBehavior, verify_table_entry
from .spaces import SpaceModel, parse_model_id, positive_curvature_catalogue


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS | WARN | FAIL
    details: str

    def line(self) -> str:
        return f"{self.status:<4} {self.name}: {self.details}"


def check_table_row(model: SpaceModel) -> CheckResult:
    """Oracle verdict for one closed-form row."""
    res = verify_table_entry(model)
    detail = (
        f"ode_residual={res.max_ode_residual:.3e} "
        f"match_residual={res.max_match_residual:.3e}"
    )
    return CheckResult(f"table {model.model_id}", "PASS" if res.passed else "FAIL", detail)


#: The table rows: every transcribed closed form, then the flat family.
_TABLE_IDS = (*harmonic.CLOSED_FORMS, "E2", "E3", "E4", "E5")


def table_checks(models: list[SpaceModel] | None = None) -> list[CheckResult]:
    if models is None:
        models = [parse_model_id(mid) for mid in _TABLE_IDS]
    return [check_table_row(m) for m in models]


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


_GROUPS = {
    "torus": quotients.TorusGroup,
    "klein": quotients.KleinGroup,
    "rp": quotients.AntipodalGroup,
    "lens": quotients.LensGroup,
    "cpq": quotients.CPInvolutionGroup,
}


def make_group(group_id: str, **kwargs) -> quotients.DeckGroup:
    try:
        return _GROUPS[group_id](**kwargs)
    except KeyError:
        raise ValueError(f"unknown group id {group_id!r}") from None


def group_checks(seed: int = 42) -> list[CheckResult]:
    out = []
    for gid in _GROUPS:
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
    closed = [quotients.injectivity_radius_closed(group, p).radius for p in points]
    return np.abs(0.5 * d_min - closed)


def injectivity_checks(seed: int = 42) -> list[CheckResult]:
    """Brute-force orbit minima against the closed forms."""
    rng = np.random.default_rng(seed)
    torus_points = rng.uniform(-1.0, 1.0, size=(20, 2))
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
        expected = quotients.injectivity_radius_closed(group, group.basepoint()).radius
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


def run_all(scope: str = "all", seed: int = 42) -> list[CheckResult]:
    if scope != "all":
        model = parse_model_id(scope)
        results = table_checks([model]) if harmonic.has_closed_form(model) else []
        if model.curvature_sign == 1:
            results += boundary_checks([model])
        if not results:
            raise ValueError(f"nothing to verify for {scope!r}")
        return results
    results = table_checks()
    results += boundary_checks()
    results += injectivity_checks(seed=seed)
    results += group_checks(seed=seed)
    results += topology_checks()
    return results

"""Characteristic numbers of the compact models and volume lower bounds.

A compact manifold modeled on a negative-curvature rank-1 symmetric space
satisfies vol(M) >= vol(dual)/chi(dual) (Gauss-Bonnet argument, even
dimensions) and, when the dual has Hirzebruch signature 1,
vol(M) >= eps * vol(dual) with eps = 1 for orientable M and 1/2 otherwise.
OP2 is the projective plane with k = 2 here, so the projective formulas give
its chi = 3, signature 1 and order set {1}.
"""

from typing import NamedTuple

from .errors import UnsupportedModel
from .spaces import Family, SpaceModel, model_volume, positive_dual


def _require_compact(model: SpaceModel) -> None:
    if model.curvature_sign != 1:
        raise UnsupportedModel(f"{model} is not a compact positive-curvature model")


def euler_characteristic(model: SpaceModel) -> int:
    """Euler characteristic of a positive-curvature model."""
    _require_compact(model)
    if model.family is Family.SPHERE:
        return 2 if model.dimension % 2 == 0 else 0
    return model.projective_index + 1


def signature(model: SpaceModel) -> int | None:
    """Hirzebruch signature; None when the dimension is not divisible by 4."""
    _require_compact(model)
    if model.dimension % 4 != 0:
        return None
    if model.family is Family.SPHERE:
        return 0
    # projective spaces with m divisible by 4
    return 1 if model.projective_index % 2 == 0 else 0


#: Isometric space-form classification is stronger than the topological
#: cover-multiplicativity bound for odd-index quaternionic spaces.
WOLF_SHARPENING_NOTE = (
    "topological bound {1,2}; the isometric classification of space forms "
    "excludes a free involution on HP^(2k+1), sharpening the order set to {1}"
)


def allowed_group_orders(model: SpaceModel) -> set[int]:
    """Orders of groups that can act freely, from cover multiplicativity of
    the Euler characteristic of the truncated-polynomial cohomology."""
    _require_compact(model)
    if model.family is Family.SPHERE:
        if model.dimension % 2 != 0:
            raise UnsupportedModel("odd spheres admit many space forms; out of scope")
        return {1, 2}
    return {1} if model.projective_index % 2 == 0 else {1, 2}


class VolumeBoundReport(NamedTuple):
    """Lower volume bounds for compact manifolds modeled on a
    negative-curvature rank-1 symmetric space."""

    model: SpaceModel
    dual: SpaceModel
    dual_volume: float
    euler: int
    signature: int | None
    gb_bound: float | None
    sig_bound: float | None
    epsilon: float
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        """The fields by name, with model ids for the two models."""
        payload = self._asdict()
        payload.update(model=self.model.model_id, dual=self.dual.model_id, notes=list(self.notes))
        return payload


#: The Cayley hyperbolic bound is vol(OP2)/chi(OP2) = vol(OP2)/3; an
#: alternatively circulated statement quotes a quaternionic volume in the
#: numerator.  The derivation value is reported and the mismatch flagged.
OP2_STATEMENT_NOTE = (
    "bound_statement_discrepancy: gauss-bonnet derivation gives vol(OP2)/3; "
    "a differently stated form of this bound quotes vol(HP^k)/3 instead"
)


def volume_bounds(negative_model: SpaceModel, orientable: bool = True) -> VolumeBoundReport:
    """Gauss-Bonnet bound vol(dual)/chi(dual) and, when the dual has
    signature 1, the signature bound eps * vol(dual); sig_bound is None
    otherwise."""
    if negative_model.curvature_sign != -1:
        raise UnsupportedModel(f"{negative_model} is not a negative-curvature model")
    dual = positive_dual(negative_model)
    if dual.dimension % 2 != 0:
        raise UnsupportedModel(
            f"gauss-bonnet bound needs even dimension, {dual} has chi = 0"
        )
    chi = euler_characteristic(dual)
    sig = signature(dual)
    eps = 1.0 if orientable else 0.5
    vol = model_volume(dual)
    notes = []
    if dual.family is Family.OCTONION_PLANE:
        notes.append(OP2_STATEMENT_NOTE)
    if sig != 1:
        notes.append("signature bound undefined: dual signature is not 1")
    if (
        negative_model.family is Family.QUATERNION_HYPERBOLIC
        and negative_model.projective_index % 2 == 1
    ):
        notes.append(WOLF_SHARPENING_NOTE)
    return VolumeBoundReport(
        model=negative_model,
        dual=dual,
        dual_volume=vol,
        euler=chi,
        signature=sig,
        gb_bound=vol / chi,
        sig_bound=eps * vol if sig == 1 else None,
        epsilon=eps,
        notes=tuple(notes),
    )

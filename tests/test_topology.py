import json
import math

import pytest

from harmonicspaces import topology
from harmonicspaces.errors import UnsupportedModel
from harmonicspaces.spaces import model_volume, parse_model_id
from harmonicspaces.topology import (
    OP2_STATEMENT_NOTE,
    WOLF_SHARPENING_NOTE,
    allowed_group_orders,
    euler_characteristic,
    signature,
    volume_bounds,
)

SIGNATURE_UNDEFINED = "signature bound undefined: dual signature is not 1"

# the characteristic-number catalogue, table-driven
CHI_SIGN = {
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


@pytest.mark.parametrize("mid,expected", CHI_SIGN.items())
def test_characteristic_numbers(mid, expected):
    model = parse_model_id(mid)
    assert euler_characteristic(model) == expected[0]
    assert signature(model) == expected[1]


def test_odd_sphere_euler_zero():
    assert euler_characteristic(parse_model_id("S5")) == 0


def test_characteristic_numbers_need_positive_curvature():
    with pytest.raises(UnsupportedModel):
        euler_characteristic(parse_model_id("hS4"))
    with pytest.raises(UnsupportedModel):
        signature(parse_model_id("E4"))


def test_allowed_group_orders():
    assert allowed_group_orders(parse_model_id("CP2")) == {1}
    assert allowed_group_orders(parse_model_id("CP4")) == {1}
    assert allowed_group_orders(parse_model_id("CP3")) == {1, 2}
    assert allowed_group_orders(parse_model_id("HP2")) == {1}
    assert allowed_group_orders(parse_model_id("HP3")) == {1, 2}
    assert allowed_group_orders(parse_model_id("OP2")) == {1}
    assert allowed_group_orders(parse_model_id("S6")) == {1, 2}
    with pytest.raises(UnsupportedModel):
        allowed_group_orders(parse_model_id("S5"))


def test_gauss_bonnet_bounds():
    hs4 = volume_bounds(parse_model_id("hS4"))
    vol_s4 = model_volume(parse_model_id("S4"))
    assert hs4.gb_bound == vol_s4 / 2
    assert hs4.gb_bound == pytest.approx(4.0 * math.pi**2 / 3.0, rel=1e-9)

    hcp2 = volume_bounds(parse_model_id("hCP2"))
    assert hcp2.gb_bound == hcp2.dual_volume / 3

    hop2 = volume_bounds(parse_model_id("hOP2"))
    assert hop2.gb_bound == hop2.dual_volume / 3
    assert any("bound_statement_discrepancy" in n for n in hop2.notes)


def test_gauss_bonnet_requires_negative_even():
    with pytest.raises(UnsupportedModel, match="CP2 is not a negative-curvature model"):
        volume_bounds(parse_model_id("CP2"))
    with pytest.raises(UnsupportedModel, match="E3 is not a negative-curvature model"):
        volume_bounds(parse_model_id("E3"))
    with pytest.raises(UnsupportedModel, match="needs even dimension, S3 has chi = 0"):
        volume_bounds(parse_model_id("hS3"))


def test_signature_bounds():
    hcp2 = volume_bounds(parse_model_id("hCP2"), orientable=True)
    assert hcp2.sig_bound == hcp2.dual_volume
    assert hcp2.epsilon == 1.0
    flipped = volume_bounds(parse_model_id("hCP2"), orientable=False)
    assert flipped.sig_bound == 0.5 * flipped.dual_volume
    assert flipped.epsilon == 0.5
    # duals of signature 0 (HP3, S4) have no signature bound
    for mid in ("hHP3", "hS4"):
        rep = volume_bounds(parse_model_id(mid))
        assert rep.signature == 0
        assert rep.sig_bound is None
        assert SIGNATURE_UNDEFINED in rep.notes


@pytest.mark.parametrize("mid", ["hCP2", "hCP4", "hHP2", "hHP4", "hOP2"])
def test_signature_dominates_gauss_bonnet(mid):
    rep = volume_bounds(parse_model_id(mid), orientable=True)
    assert rep.sig_bound >= rep.gb_bound


def test_bound_ratios_exact():
    # ratio gb_bound / dual_volume is exactly 1/chi as computed
    for mid, chi in (("hS4", 2), ("hS6", 2), ("hCP2", 3), ("hCP3", 4), ("hHP2", 3), ("hOP2", 3)):
        rep = volume_bounds(parse_model_id(mid))
        assert rep.euler == chi
        assert rep.gb_bound == rep.dual_volume / chi


def test_volume_bounds_integrates_once(monkeypatch):
    # the dual's volume is computed once (a Beta function); both bounds share it
    calls = []

    def counted(model):
        calls.append(model.model_id)
        return model_volume(model)

    monkeypatch.setattr(topology, "model_volume", counted)
    rep = volume_bounds(parse_model_id("hCP2"))
    assert calls == ["CP2"]
    assert rep.gb_bound is not None and rep.sig_bound is not None


def test_merged_report_hhp3():
    rep = volume_bounds(parse_model_id("hHP3"))
    assert rep.gb_bound == rep.dual_volume / 4
    assert rep.sig_bound is None
    assert any("signature bound undefined" in n for n in rep.notes)
    assert any("sharpening" in n for n in rep.notes)
    assert rep.notes == (SIGNATURE_UNDEFINED, WOLF_SHARPENING_NOTE)


def test_report_json_fields():
    rep = volume_bounds(parse_model_id("hOP2"), orientable=False)
    payload = rep.to_json_dict()
    assert set(payload) == {
        "model", "dual", "dual_volume", "euler", "signature",
        "gb_bound", "sig_bound", "epsilon", "notes",
    }
    assert payload["model"] == "hOP2"
    assert payload["dual"] == "OP2"
    assert payload["epsilon"] == 0.5
    assert OP2_STATEMENT_NOTE in payload["notes"]
    json.dumps(payload)  # serializable

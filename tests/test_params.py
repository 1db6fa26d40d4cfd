"""Parameter container, unit conversions and config parsing."""
import json
import math

import pytest

from kpoqcr import ConfigError, SystemParams, load_config
from kpoqcr.constants import (H_UEV_PER_GHZ, KB_HZ_PER_K, R_K_OHM,
                              kelvin_to_hz, uev_to_hz)


def test_defaults_and_derived():
    p = SystemParams()
    assert p.alpha == pytest.approx(2.0, rel=1e-15)
    assert p.omega_rf == p.omega_c == 7e9
    assert p.gap_hz == pytest.approx(200.0 / H_UEV_PER_GHZ * 1e9, rel=1e-15)
    assert p.t_n_hz == pytest.approx(0.1 * KB_HZ_PER_K, rel=1e-15)
    assert p.r_ratio == pytest.approx(R_K_OHM / 50e3, rel=1e-15)


def test_unit_conversions():
    assert uev_to_hz(H_UEV_PER_GHZ) == pytest.approx(1e9, rel=1e-15)
    assert kelvin_to_hz(1.0) == KB_HZ_PER_K
    assert kelvin_to_hz(0.0) == 0.0


def test_detuning_shifts_rotating_frame():
    p = SystemParams(delta_kpo=0.5e9)
    assert p.omega_rf == pytest.approx(6.5e9)


def test_with_alpha_round_trip():
    p = SystemParams().with_alpha(1.37)
    assert p.alpha == pytest.approx(1.37, rel=1e-14)
    assert p.chi == SystemParams().chi  # only the pump moves


def test_replace_returns_new_instance():
    p = SystemParams()
    q = p.replace(bias_v=40e9)
    assert q.bias_v == 40e9 and p.bias_v == 45e9


@pytest.mark.parametrize("bad", [
    {"chi": 0.0},
    {"beta": -1.0},
    {"gap_delta": 0.0},
    {"gamma_dynes": 0.0},
    {"r_tunnel": 0.0},
    {"n_fock": 4},
    {"n_keep": 40},          # above n_fock / 2
    {"dm_max": 0},
    {"dm_max": 60},          # not below n_fock
    {"q_max": 0},
    {"match_tol": 0.0},
    {"quad_rel_tol": 0.1},
    {"omega_c": 1e9, "delta_kpo": 2e9},   # omega_rf <= 0
])
def test_invalid_values_rejected(bad):
    with pytest.raises(ConfigError):
        SystemParams(**bad)


def test_from_dict_ghz_suffix():
    p = SystemParams.from_dict({"bias_v_ghz": 40.0, "chi_ghz": 0.01})
    assert p.bias_v == 40e9
    assert p.chi == 1e7


def test_from_dict_rejects_unknown_duplicate_and_nonnumeric():
    with pytest.raises(ConfigError, match="unknown parameter"):
        SystemParams.from_dict({"bias": 1.0})
    with pytest.raises(ConfigError, match="twice"):
        SystemParams.from_dict({"bias_v": 1e9, "bias_v_ghz": 1.0})
    with pytest.raises(ConfigError, match="must be a number"):
        SystemParams.from_dict({"bias_v": "fast"})
    with pytest.raises(ConfigError, match="must be a number"):
        SystemParams.from_dict({"bias_v": True})
    with pytest.raises(ConfigError, match="must be an integer"):
        SystemParams.from_dict({"n_fock": 60.5})


def test_ghz_suffix_limited_to_frequency_fields():
    with pytest.raises(ConfigError, match="unknown parameter"):
        SystemParams.from_dict({"temp_n_ghz": 1.0})


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="root must be a JSON object"):
        load_config(arr)


def test_from_json_round_trip(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"temp_n": 0.01, "kappa_ghz": 1.6e-6}))
    p = SystemParams.from_dict(load_config(cfg))
    assert p.temp_n == 0.01
    assert p.kappa == pytest.approx(1.6e3)


def test_echo_items_complete_and_ordered():
    p = SystemParams()
    items = p.echo_items()
    names = [k for k, _ in items]
    assert names[0] == "chi" and "bias_v" in names and len(names) == 20
    assert dict(items)["n_keep"] == 12


def test_frozen():
    p = SystemParams()
    with pytest.raises(Exception):
        p.bias_v = 0.0


def test_alpha_matches_definition():
    p = SystemParams(chi=7e6, beta=31e6)
    assert p.alpha == pytest.approx(math.sqrt(2 * 31e6 / 7e6), rel=1e-15)

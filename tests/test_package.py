"""The package's public surface: every exported name resolves, retired names stay gone."""

import importlib.util

import sled_oam
from sled_oam import bcs, modes, pair_state, spectral

RETIRED = {
    "fermi_level_2d_mev": bcs,
    "KappaTable": modes,
    "k_factor": modes,
    "WindingNumber": pair_state,
    "_ls_value": pair_state,
    "normalize": pair_state,
    "rate_surface": spectral,
    "s_bqp": spectral,
    "s_cp": spectral,
}


def test_every_exported_name_is_an_attribute():
    assert [name for name in sled_oam.__all__ if not hasattr(sled_oam, name)] == []
    assert len(set(sled_oam.__all__)) == len(sled_oam.__all__)


def test_retired_names_are_gone():
    for name, module in RETIRED.items():
        assert name not in sled_oam.__all__
        assert not hasattr(sled_oam, name)
        assert not hasattr(module, name)


def test_the_constants_module_is_gone():
    # its constants and band formulas live in bcs
    assert importlib.util.find_spec("sled_oam.constants") is None

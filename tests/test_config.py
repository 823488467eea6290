import configparser
import math
import os
import re

import pytest

from sled_oam.config import _SCHEMA, PRESET_NAMES, load_config
from sled_oam.errors import ConfigError
from sled_oam.modes import MAX_OAM
from sled_oam.pair_state import QubitState

MINIMAL = ""
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def write(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestDefaults:
    def test_minimal_file_expands_to_full_config(self, tmp_path):
        config = load_config(write(tmp_path, MINIMAL))
        assert len(config.grid.temperatures) == 19
        assert len(config.grid.detunings) == 121
        assert config.winding == 2
        assert config.basis.l_max == 3
        assert config.enhancements == (10.0, 100.0)
        assert config.qubit == QubitState(1.0, 0.0)  # the clockwise current
        assert config.geometry.waist == pytest.approx(9.0 / math.sqrt(2.0), rel=1e-15)
        assert "grid.temperatures" in config.defaulted
        assert "geometry.waist_um" in config.defaulted
        assert config.resolved["emission.winding"] == "2"

    def test_basis_uses_l_max_by_default(self, tmp_path):
        config = load_config(write(tmp_path, MINIMAL))
        assert len(config.basis) == 49

    def test_l_values_restrict_basis(self, tmp_path):
        config = load_config(
            write(tmp_path, MINIMAL + "[emission]\nl_max = 1\nl_values = 0, 1\n")
        )
        assert config.basis.pairs == ((0, 0), (0, 1), (1, 0), (1, 1))


class TestRejection:
    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="material.bogus"):
            load_config(write(tmp_path, "[material]\nbogus = 3\n"))

    def test_unknown_section_named(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[detector\]"):
            load_config(write(tmp_path, MINIMAL + "[detector]\nkind = slm\n"))

    def test_nonpositive_detuning_max(self, tmp_path):
        # the smallest positive double is the range's lower end
        with pytest.raises(ConfigError, match=r"must lie in \[4\.94066e-324, 1e\+06\], got 0\.0$"):
            load_config(write(tmp_path, "[grid]\ndetuning_max = 0\n"))

    @pytest.mark.parametrize("d_max", ["0", "-1", "-0.0"])
    def test_nonpositive_detuning_max_names_its_key(self, tmp_path, d_max):
        with pytest.raises(ConfigError, match=r"^grid\.detuning_max: must lie in "):
            load_config(write(tmp_path, ""), [f"grid.detuning_max={d_max}"])

    def test_bad_number_names_key(self, tmp_path):
        with pytest.raises(ConfigError, match="material.tc_k"):
            load_config(write(tmp_path, "[material]\ntc_k = warm\n"))

    def test_temperature_outside_open_interval(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, MINIMAL + "[grid]\ntemperatures = 0.5, 1.0\n"))

    def test_one_sided_qubit(self, tmp_path):
        with pytest.raises(ConfigError, match="qubit"):
            load_config(write(tmp_path, MINIMAL + "[emission]\nqubit_a = 1, 0\n"))

    def test_qubit_norm(self, tmp_path):
        text = MINIMAL + "[emission]\nqubit_a = 1, 0\nqubit_b = 1, 0\n"
        with pytest.raises(ConfigError, match="qubit"):
            load_config(write(tmp_path, text))

    def test_threads_is_an_unknown_key(self, tmp_path):
        # every run is on one thread, so there is no thread count to set
        with pytest.raises(ConfigError, match=r"^unknown config key output\.threads$"):
            load_config(write(tmp_path, MINIMAL + "[output]\nthreads = 1\n"))

    def test_the_quadrature_error_estimate_cannot_be_turned_off(self, tmp_path):
        # true is the default and changes nothing; the estimate runs on every run
        assert load_config(write(tmp_path, MINIMAL)).resolved["grid.verify_quadrature"] == "true"
        load_config(write(tmp_path, MINIMAL), ["grid.verify_quadrature=true"])
        with pytest.raises(ConfigError, match=r"^grid\.verify_quadrature: .* every run$"):
            load_config(write(tmp_path, MINIMAL), ["grid.verify_quadrature=false"])

    def test_svg_must_be_a_boolean(self, tmp_path):
        with pytest.raises(ConfigError, match="output.svg"):
            load_config(write(tmp_path, MINIMAL + "[output]\nsvg = pdf\n"))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("grid.cutoff_delta0", "0"),
            ("grid.cutoff_delta0", "1000000.1"),
            ("grid.cutoff_delta0", "1e308"),
            ("material.dephasing_time_fs", "0"),
            ("material.dephasing_time_fs", "9.9e-13"),
            ("material.dephasing_time_fs", "1e-320"),
            ("material.dephasing_time_fs", "1.1e12"),
            ("material.electron_mass", "0"),
            ("material.electron_mass", "1e-300"),
            ("material.electron_mass", "9.9e-4"),
            ("material.hole_mass", "1e-300"),
            ("material.hole_mass", "1000.1"),
            ("material.hole_mass", "1e200"),
            ("material.delta0_mev", "9.9e-4"),
            ("material.delta0_mev", "1.7e308"),
            ("material.electron_density_cm2", "9.9e5"),
            ("material.electron_density_cm2", "1.7e308"),
            ("material.hole_density_cm2", "1.1e16"),
            ("material.hole_density_cm2", "1.7e308"),
            ("material.gap_scale_conduction", "0"),
            ("material.gap_scale_conduction", "1.7e308"),
            ("material.gap_scale_valence", "1e-300"),
            ("material.gap_scale_valence", "1.7e308"),
            ("grid.detuning_max", "1000000.1"),
            ("grid.detuning_max", "1.7e308"),
            ("grid.quadrature_nodes", "63"),
            ("grid.quadrature_nodes", "131074"),
            ("grid.quadrature_nodes", "1000000000000000"),
            ("grid.detuning_points", "1"),
            ("grid.detuning_points", "10002"),
            ("grid.detuning_points", "1000000000000000"),
            ("material.tc_k", "0"),
            ("material.tc_k", "1e-300"),
            ("material.tc_k", "9.9e-5"),
            ("material.tc_k", "1000.1"),
            ("material.tc_k", "1.7e308"),
            ("geometry.r_inner_um", "-1"),
            ("geometry.r_inner_um", "5000.1"),
            ("geometry.r_outer_um", "0"),
            ("geometry.r_outer_um", "1e-300"),
            ("geometry.r_outer_um", "1e300"),
            ("geometry.waist_um", "9.9e-4"),
            ("geometry.waist_um", "1e-300"),
            ("geometry.waist_um", "10000.1"),
            ("emission.detuning_for_dm", "1e300"),
            ("emission.detuning_for_dm", "-1000000.1"),
        ],
    )
    def test_value_outside_its_finite_range_names_its_key(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: must lie in "):
            load_config(write(tmp_path, MINIMAL), [f"{key}={value}"])

    def test_range_ends_and_the_sharp_resonance_load(self, tmp_path):
        for setting in (
            "grid.cutoff_delta0=1e6",
            "grid.cutoff_delta0=5e-324",
            "material.dephasing_time_fs=1e-12",
            "material.dephasing_time_fs=1e12",
            "material.dephasing_time_fs=1e5",
            "material.electron_mass=1e-3",
            "material.electron_mass=1e3",
            "material.hole_mass=1e-3",
            "material.hole_mass=1e3",
            "material.delta0_mev=1e-3",
            "material.delta0_mev=1e3",
            "material.electron_density_cm2=1e6",
            "material.hole_density_cm2=1e16",
            "material.gap_scale_conduction=1e-3",
            "material.gap_scale_valence=1e3",
            "grid.detuning_max=1e6",
            "grid.quadrature_nodes=64",
            "grid.quadrature_nodes=131073",
            "grid.detuning_points=2",
            "grid.detuning_points=10001",
            "material.tc_k=1e-4",
            "material.tc_k=1e3",
            "geometry.waist_um=1e-3",
            "geometry.waist_um=1e4",
            "emission.detuning_for_dm=1e6",
            "emission.detuning_for_dm=-1e6",
        ):
            load_config(write(tmp_path, MINIMAL), [setting])

    @pytest.mark.parametrize(
        "r_inner, r_outer",
        [
            (r_inner, r_outer)
            for r_inner in _SCHEMA["geometry"]["r_inner_um"][2]
            for r_outer in _SCHEMA["geometry"]["r_outer_um"][2]
            if r_inner <= r_outer
        ],
    )
    def test_the_waist_derived_at_the_radius_ends_loads_again(self, tmp_path, r_inner, r_outer):
        # the manifest echoes the derived waist, which must pass the waist's own range
        radii = [f"geometry.r_inner_um={r_inner!r}", f"geometry.r_outer_um={r_outer!r}"]
        config = load_config(write(tmp_path, MINIMAL), radii)
        echoed = f"geometry.waist_um={config.resolved['geometry.waist_um']}"
        assert load_config(write(tmp_path, MINIMAL), radii + [echoed]).geometry == config.geometry

    @pytest.mark.parametrize("d_max, points", [("5e-324", 121), ("1e-322", 121), ("5e-324", 5)])
    def test_a_detuning_grid_that_underflows_names_max_and_points(self, tmp_path, d_max, points):
        # positive, but the spacing d_max * 2 / (points - 1) rounds to zero
        overrides = [f"grid.detuning_max={d_max}", f"grid.detuning_points={points}"]
        message = rf"^grid\.detuning_max: {re.escape(d_max)} is too small for {points} strictly "
        with pytest.raises(ConfigError, match=message):
            load_config(write(tmp_path, MINIMAL), overrides)

    def test_the_smallest_detuning_max_loads_with_three_points(self, tmp_path):
        config = load_config(
            write(tmp_path, MINIMAL), ["grid.detuning_max=5e-324", "grid.detuning_points=3"]
        )
        assert config.grid.detunings == (-5e-324, 0.0, 5e-324)

    def test_enhancement_below_one(self, tmp_path):
        with pytest.raises(ConfigError, match="enhancements"):
            load_config(write(tmp_path, MINIMAL + "[emission]\nenhancements = 0.5\n"))

    @pytest.mark.parametrize("l_max", [-1, MAX_OAM + 1])
    def test_l_max_outside_supported_range(self, tmp_path, l_max):
        with pytest.raises(ConfigError, match="emission.l_max"):
            load_config(write(tmp_path, f"[emission]\nl_max = {l_max}\n"))

    def test_l_max_at_supported_bound(self, tmp_path):
        config = load_config(write(tmp_path, f"[emission]\nl_max = {MAX_OAM}\n"))
        assert config.basis.l_max == MAX_OAM

    def test_l_values_above_l_max(self, tmp_path):
        text = MINIMAL + "[emission]\nl_max = 1\nl_values = 0, 2\n"
        with pytest.raises(ConfigError, match="l_values"):
            load_config(write(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="neither"):
            load_config(str(tmp_path / "nope.conf"))

    def test_parse_error_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="parse"):
            load_config(write(tmp_path, "[material\ntc_k = 9.2\n"))

    def test_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.conf"
        path.write_bytes("[grid]\n# caf\u00e9\n".encode("latin-1"))
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_config(str(path))

    def test_a_default_section_is_unknown(self, tmp_path):
        # with or without an [output] section for its keys to reach
        for text in ("[DEFAULT]\nsvg = true\n", "[output]\n[DEFAULT]\nsvg = true\n"):
            with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]$"):
                load_config(write(tmp_path, text))

    def test_section_names_are_case_sensitive_and_keys_are_not(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[Output\]"):
            load_config(write(tmp_path, "[Output]\nsvg = true\n"))
        assert load_config(write(tmp_path, "[output]\nSVG = true\n")).svg


class TestOverrides:
    def test_set_overrides_file_value(self, tmp_path):
        path = write(tmp_path, MINIMAL + "[emission]\nl_max = 3\n")
        config = load_config(path, ["emission.l_max=2"])
        assert config.basis.l_max == 2

    def test_override_validated_like_file_content(self, tmp_path):
        with pytest.raises(ConfigError, match="emission.buzz"):
            load_config(write(tmp_path, MINIMAL), ["emission.buzz=1"])

    @pytest.mark.parametrize("item", ["l_max=2", ".l_max=2", "emission.=2", " . =2"])
    def test_malformed_override(self, tmp_path, item):
        with pytest.raises(ConfigError, match="must look like section.key$"):
            load_config(write(tmp_path, MINIMAL), [item])

    def test_an_override_of_the_default_section_is_unknown(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]$"):
            load_config(write(tmp_path, MINIMAL), ["DEFAULT.svg=true"])

    def test_qubit_round_trip(self, tmp_path):
        inv = 1.0 / math.sqrt(2.0)
        path = write(
            tmp_path,
            MINIMAL + f"[emission]\nqubit_a = {inv}, 0\nqubit_b = {inv}, {math.pi}\n",
        )
        config = load_config(path)
        assert config.qubit.a.real == pytest.approx(inv)
        assert config.qubit.b.real == pytest.approx(-inv)


class TestPresets:
    def test_all_presets_load(self):
        for name in PRESET_NAMES:
            config = load_config(name)
            assert config.grid.temperatures

    def test_fig2_grid_is_exactly_symmetric(self):
        d = load_config("fig2").grid.detunings
        assert d == tuple(k / 10 for k in range(-60, 61))  # one rounding per point
        assert all(d[i] == -d[120 - i] for i in range(121))
        assert len({abs(x) for x in d}) == 61

    def test_fig5_uses_restricted_basis(self):
        config = load_config("fig5")
        assert config.winding == 1
        assert config.basis.pairs == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert config.enhancements == (10.0, 30.0, 100.0)
        assert len(config.grid.temperatures) == 19

    def test_fig3_matches_figure_parameters(self):
        config = load_config("fig3")
        assert config.winding == 2
        assert config.basis.l_max == 3
        assert config.grid.temperatures == (0.5, 0.9)
        assert config.enhancements == (10.0, 100.0)
        assert config.detuning_for_dm == 5.0


def test_readme_sample_lists_the_schema_keys():
    with open(README, encoding="utf-8") as fh:
        sample = re.search(r"```ini\n(.*?)```", fh.read(), re.S).group(1)
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    parser.read_string(sample)
    documented = {section: list(parser[section]) for section in parser.sections()}
    assert documented == {section: list(keys) for section, keys in _SCHEMA.items()}
    # each bounded key's comment ends in its range, and no other comment does
    ranges = {}
    for line in sample.splitlines():
        if "=" in line:
            key = line.partition("=")[0].strip()
            ends = re.search(r"\[([^\]]+), ([^\]]+)\]$", line.partition("#")[2].strip())
            ranges[key] = ends and tuple(float(end) for end in ends.groups())
    expected = {key: row[2] for rows in _SCHEMA.values() for key, row in rows.items()}
    assert ranges == expected

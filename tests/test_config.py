import math
import re
from pathlib import Path

import pytest

from vdwgrating import ConfigError
from vdwgrating.config import load_config, parse_config

MINIMAL = """
geometry.d = 100.0
geometry.s0 = 66.8
geometry.t = 53.0
geometry.beta_deg = 11.0
beam.species = He*
beam.mass_u = 4.002602
beam.velocity_mps = 2347.0
potential.c3_mev_nm3 = 4.1
run.n_max = 10
"""


class TestParse:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.species == "He*"
        assert cfg.geometry.period == 100.0
        assert cfg.geometry.wedge_angle == pytest.approx(math.radians(11.0))
        assert cfg.beam.dv_over_u == 0.0
        assert cfg.tolerance == 1e-8
        assert cfg.seed == 0
        assert cfg.material is None
        assert cfg.atom is None
        assert cfg.table_path is None

    def test_shipped_configs_parse(self, he_config_path, ne_config_path):
        he = load_config(he_config_path)
        assert he.species == "He*"
        assert he.material is not None
        assert he.atom is not None
        assert he.es_ev == 13.0
        ne = load_config(ne_config_path)
        assert ne.species == "Ne*"
        assert ne.potential.c3 == 2.8

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# leading comment\n\n" + MINIMAL)
        assert cfg.n_max == 10

    def test_empty_document_lists_required_sections(self):
        with pytest.raises(ConfigError) as err:
            parse_config("\n# only a comment\n")
        msg = str(err.value)
        for section in ("geometry", "beam", "potential", "run"):
            assert section in msg

    def test_missing_key_reported(self):
        text = MINIMAL.replace("run.n_max = 10\n", "")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "run.n_max" in str(err.value)

    def test_unknown_key_with_line(self):
        text = MINIMAL + "geometry.dd = 1.0\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "geometry.dd" in str(err.value)
        assert err.value.line == MINIMAL.count("\n") + 1

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "run.n_max = 5\n")
        assert "duplicate" in str(err.value)

    def test_malformed_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("geometry.d 100.0\n")
        assert err.value.line == 1

    def test_bad_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("= 2347.0", "= fast"))
        assert "beam.velocity_mps" in str(err.value)

    def test_non_integer_n_max(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("run.n_max = 10",
                                         "run.n_max = 10.5"))

    def test_out_of_range_value(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("beta_deg = 11.0",
                                         "beta_deg = 95.0"))
        assert "geometry.beta_deg" in str(err.value)

    def test_slit_wider_than_period(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("geometry.s0 = 66.8",
                                         "geometry.s0 = 120.0"))
        assert "geometry" in str(err.value)

    def test_partial_material_group(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "material.band_gap_ev = 2.29\n")
        assert "material" in str(err.value)

    def test_partial_atom_pair(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "atom.alpha0_nm3 = 0.0468\n")
        assert "atom.ea_ev" in str(err.value)

    def test_negative_c3_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("c3_mev_nm3 = 4.1",
                                         "c3_mev_nm3 = -1.0"))


class TestRoundTrip:
    # every wedge angle on a 0.1 degree grid: a value carried through
    # radians came back as 1.5000000000000002 for 1.5
    @pytest.mark.parametrize("config", ["he_config_path", "ne_config_path"])
    @pytest.mark.parametrize("beta", [f"{k // 10}.{k % 10}"
                                      for k in range(900)])
    def test_resolved_items_reparse_identically(self, config, beta,
                                                request):
        text = re.sub(r"(?m)^geometry\.beta_deg = .*$",
                      f"geometry.beta_deg = {beta}",
                      Path(request.getfixturevalue(config)).read_text())
        cfg = parse_config(text)
        text = "\n".join(f"{k} = {v}" for k, v in cfg.resolved_items())
        again = parse_config(text)
        assert again == cfg

    def test_minimal_roundtrip_applies_defaults(self):
        cfg = parse_config(MINIMAL)
        text = "\n".join(f"{k} = {v}" for k, v in cfg.resolved_items())
        assert "beam.dv_over_u = 0.0" in text
        assert "run.tolerance = 1e-08" in text
        assert parse_config(text) == cfg

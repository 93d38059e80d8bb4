import dataclasses

import pytest

from circfreg import ConfigError, RunConfig, config_echo, parse_config

MINIMAL_PP = """
# minimal polynomial-polynomial run
regime = PP
a = 1.0
p = 2.0
s = 0.0
sigma = 0.5
rho = 1.0
n_grid = 250,500,1000
replications = 10
seed = 42
"""


class TestParsing:
    def test_minimal_document_fills_defaults(self):
        cfg = parse_config(MINIMAL_PP)
        assert cfg.regime == "PP" and cfg.n_grid == (250, 500, 1000)
        assert cfg.variant == "data_driven"
        assert cfg.pen_const_known == 192.0
        assert cfg.pen_const_unknown == 1920.0
        assert cfg.j_max is None
        assert cfg.sequence_spec().enforce_pair is True

    # eta and out_dir were keys up to version 0.5.0: eta is the constant
    # estimator.ETA and the output directory comes only from --out; enforce_pair
    # was one up to 0.7.0: a stationary regressor always pairs its eigenvalues
    @pytest.mark.parametrize("line", ["mystery = 3", "eta = 3", "out_dir = results",
                                      "enforce_pair = true"],
                             ids=["mystery", "eta", "out_dir", "enforce_pair"])
    def test_unknown_key_rejected(self, line):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(f"{MINIMAL_PP}\n{line}\n")

    def test_missing_required_key(self):
        broken = MINIMAL_PP.replace("sigma = 0.5", "")
        with pytest.raises(ConfigError, match="sigma: missing"):
            parse_config(broken)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL_PP + "\nseed = 43\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config(MINIMAL_PP + "\njust some words\n")

    # only j_max accepts none; n_grid is None only as a regime default
    @pytest.mark.parametrize("key, value", [("replications", "ten"), ("replications", "none"),
                                            ("n_grid", "none"), ("seed", "none")])
    def test_unparseable_value(self, key, value):
        doc = "\n".join(line for line in MINIMAL_PP.splitlines()
                        if not line.startswith(f"{key} ="))
        with pytest.raises(ConfigError, match=f"^{key}: cannot parse {value!r}"):
            parse_config(f"{doc}\n{key} = {value}\n")

    def test_words_parse_in_any_case(self):
        cfg = parse_config(MINIMAL_PP + "\nj_max = NONE\n")
        assert cfg.j_max is None


class TestValidation:
    def test_ill_posedness_bound_named(self):
        with pytest.raises(ConfigError, match="a > 1/2"):
            parse_config(MINIMAL_PP.replace("a = 1.0", "a = 0.4"))

    def test_grid_entry_bound_named(self):
        with pytest.raises(ConfigError, match="n >= 2"):
            parse_config(MINIMAL_PP.replace("n_grid = 250,500,1000", "n_grid = 1,250"))

    @pytest.mark.parametrize("key, value", [("n_grid", (10**8 + 1,)), ("j_max", 10**8 + 1)],
                             ids=["n_grid", "j_max"])
    def test_size_bound_named(self, key, value):
        # one past the bound of 10^8, the largest n the plans are sized for
        with pytest.raises(ConfigError, match=f"^{key}: .*<= 100000000\\b"):
            dataclasses.replace(parse_config(MINIMAL_PP), **{key: value})

    @pytest.mark.parametrize("key, value", [("n_grid", (10**8,)), ("j_max", 10**8)],
                             ids=["n_grid", "j_max"])
    def test_size_bound_admits_its_value(self, key, value):
        assert getattr(dataclasses.replace(parse_config(MINIMAL_PP), **{key: value}), key) == value

    def test_grid_must_increase(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            parse_config(MINIMAL_PP.replace("n_grid = 250,500,1000", "n_grid = 500,250"))

    def test_multiple_violations_all_reported(self):
        bad = (MINIMAL_PP
               .replace("a = 1.0", "a = 0.1")
               .replace("rho = 1.0", "rho = -1.0")
               .replace("replications = 10", "replications = 0"))
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        text = str(err.value)
        assert "a >" in text and "rho" in text and "replications" in text

    @pytest.mark.parametrize("key", ["a", "p", "s", "sigma", "rho",
                                     "pen_const_known", "pen_const_unknown"])
    def test_nonfinite_float_named(self, key):
        for value in ("nan", "inf", "-inf"):
            doc = "\n".join(line for line in MINIMAL_PP.splitlines()
                            if not line.startswith(f"{key} ="))
            with pytest.raises(ConfigError, match=f"{key}: must be finite, got {value}"):
                parse_config(f"{doc}\n{key} = {value}\n")

    def test_variant_vocabulary(self):
        with pytest.raises(ConfigError, match="variant"):
            parse_config(MINIMAL_PP + "\nvariant = adaptive\n")

    def test_pe_small_a_allowed(self):
        cfg = parse_config(MINIMAL_PP.replace("regime = PP", "regime = PE")
                           .replace("a = 1.0", "a = 0.5"))
        assert cfg.regime == "PE"

    def test_grid_and_replications_default_per_regime(self):
        bare = (MINIMAL_PP
                .replace("n_grid = 250,500,1000\n", "")
                .replace("replications = 10\n", ""))
        cfg = parse_config(bare)
        assert cfg.n_grid == (250, 500, 1000, 2000, 4000)
        assert cfg.replications == 200
        pe = parse_config(bare.replace("regime = PP", "regime = PE")
                          .replace("a = 1.0", "a = 0.5"))
        assert pe.n_grid == (500, 2000, 8000)


def _echo_document(cfg):
    # the echo's key=value pairs, one a line
    return "\n".join(config_echo(cfg).split())


class TestRoundTrip:
    def test_echo_parse_identity(self):
        cfg = parse_config(MINIMAL_PP)
        assert parse_config(_echo_document(cfg)) == cfg

    def test_round_trip_with_overrides(self):
        cfg = RunConfig(
            regime="PE", a=0.5, p=1.0, s=0.0, sigma=0.25, rho=2.5,
            n_grid=(500, 2000, 8000), replications=100, seed=7,
            variant="both", pen_const_known=0.5, pen_const_unknown=0.3, j_max=123,
        )
        assert parse_config(_echo_document(cfg)) == cfg

    def test_round_trip_preserves_float_bits(self):
        cfg = RunConfig(
            regime="PP", a=0.7500000000000001, p=2.0, s=-0.3333333333333333,
            sigma=0.1, rho=1.0, n_grid=(10, 20), replications=1, seed=0,
        )
        back = parse_config(_echo_document(cfg))
        assert back.a == cfg.a and back.s == cfg.s

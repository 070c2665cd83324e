import dataclasses
import io

import pytest

from starnoma.config import (
    ConfigError,
    PowerAllocation,
    SystemConfig,
    baseline_config,
    default_power_allocation,
    dump_config,
    load_config,
)

BASELINE_DOC = """
geometry:
  R: 50.0
  R_r: 30.0
  d_br: 80.0
  m: 2.7
surface:
  N: 10
users:
  K_cd: 6
  K_cu: 6
  K_ed: 3
  K_eu: 3
  K_d1: 3
  K_d2: 3
  K_u1: 3
  K_u2: 3
impairments:
  xi_sic: 0.1
  si_beta: 0.001
"""


def test_baseline_document_loads():
    doc = BASELINE_DOC.replace("si_beta", "beta_si")
    cfg = load_config(io.StringIO(doc))
    assert cfg.R == 50.0 and cfg.R_r == 30.0 and cfg.N == 10
    assert cfg.m == 2.7 and cfg.xi_sic == 0.1 and cfg.beta_si == 0.001
    assert cfg.lambda_si == 0.1
    assert all(k == 3.0 for k in cfg.kappa_map.values())
    assert cfg.K_d1 + cfg.K_d2 == cfg.K_cd


def test_unknown_field_rejected():
    with pytest.raises(ConfigError, match="si_beta"):
        load_config(io.StringIO(BASELINE_DOC))


def test_alpha_ordering_rejected():
    with pytest.raises(ConfigError, match="alpha"):
        load_config(io.StringIO("allocation:\n  alpha: [0.5, 0.3, 0.2]\n  p_ul: [1.0, 1.0, 1.0]\n"))


def test_geometry_precondition_rejected():
    with pytest.raises(ConfigError, match="d_br"):
        load_config(io.StringIO("geometry:\n  d_br: 40.0\n"))


@pytest.mark.parametrize(
    "field,value,match",
    [
        ("xi_sic", 1.5, "xi_sic"),
        ("lambda_si", -0.1, "lambda_si"),
        ("K_d1", 2, "K_d1"),
        ("p_um", 2000.0, "p_um"),
        ("R", -1.0, "R"),
        ("sigma2", 0.0, "sigma2"),
    ],
)
def test_invariant_violations_name_the_field(field, value, match):
    with pytest.raises(ConfigError, match=match):
        dataclasses.replace(baseline_config(), **{field: value})


@pytest.mark.parametrize("field", ["weights_dl", "weights_ul"])
@pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 1.0, 1.0, 1.0)])
def test_weights_need_one_entry_per_role(field, weights):
    # a short tuple would weight the missing role 0; a long one would fail only in RateReport.weighted_sum
    with pytest.raises(ConfigError, match=field):
        dataclasses.replace(baseline_config(), **{field: weights})


def test_negative_kappa_rejected():
    cfg = baseline_config()
    bad = dict(cfg.kappa_map, **{"b,r": -1.0})
    with pytest.raises(ConfigError, match="kappa"):
        dataclasses.replace(cfg, kappa_map=bad)


def test_round_trip_identity(tmp_path):
    cfg = baseline_config(P_b=200.0, p_um=20.0, xi_sic=0.05)
    path = tmp_path / "cfg.yaml"
    dump_config(cfg, str(path))
    again = load_config(str(path))
    assert again == cfg


def test_round_trip_with_allocation():
    cfg = baseline_config(allocation=PowerAllocation((0.1, 0.3, 0.6), (10.0, 10.0, 5.0)))
    assert load_config(dump_config(cfg)) == cfg


def test_with_snr():
    cfg = baseline_config().with_snr(40.0)
    assert cfg.P_b == pytest.approx(1e4)
    assert cfg.p_um == pytest.approx(1e3)
    assert cfg.snr_db == pytest.approx(40.0)


def test_default_power_allocation(cfg):
    pw = default_power_allocation(cfg)
    assert pw.alpha[0] < pw.alpha[1] < pw.alpha[2]
    assert sum(pw.alpha) <= 1.0
    assert all(p == cfg.p_um for p in pw.p_ul)


def test_allocation_budget_check():
    with pytest.raises(ConfigError, match="p_ul"):
        PowerAllocation((0.1, 0.3, 0.6), (1.0, 1.0, 200.0)).validate_budget(100.0)


def test_uniform_clusters_flag(cfg):
    assert cfg.uniform_clusters()
    assert not dataclasses.replace(cfg, K_ed=4).uniform_clusters()


def test_config_equality_is_value_based(cfg):
    assert cfg == SystemConfig()


@pytest.mark.parametrize(
    "field,value",
    [
        ("R", float("nan")),
        ("P_b", float("inf")),
        ("sigma2", float("nan")),
        ("m", float("inf")),
        ("beta_si", float("-inf")),
        ("weights_ul", (1.0, float("nan"), 1.0)),
        ("kappa_map", {"b,r": float("inf")}),
        ("angle_map", {"r,u3d": (float("nan"), 1.0)}),
    ],
)
def test_non_finite_values_rejected(field, value):
    # NaN slips through every range check, so finiteness is checked on its own
    cfg = baseline_config()
    if isinstance(value, dict):
        value = {**getattr(cfg, field), **value}
    with pytest.raises(ConfigError, match=field):
        dataclasses.replace(cfg, **{field: value})


@pytest.mark.parametrize(
    "doc,match",
    [
        ("rician: [1, 2]\n", "'rician' must be a mapping"),
        ("rician:\n  default: abc\n", "rician.default"),
        ("allocation:\n  alpha: [0.1, 0.3, 0.6]\n", "allocation.p_ul"),
        ("weights:\n  dl: 3\n", "weights.dl"),
        ("weights: [1, 2]\n", "'weights' must be a mapping"),
        ("weights:\n  up: [1, 1, 1]\n", "weights.up"),
        ("angles:\n  b,r: [1.0]\n", "angles.b,r"),
    ],
)
def test_malformed_sections_name_the_field(doc, match):
    with pytest.raises(ConfigError, match=match):
        load_config(io.StringIO(doc))


@pytest.mark.parametrize(
    "doc,field",
    [
        ("surface:\n  N: 10.5\n", "N"),
        ("surface:\n  N: true\n", "N"),
        ("users:\n  K_ed: 2.5\n", "K_ed"),
        ("clusters:\n  M_u: false\n", "M_u"),
        ("surface:\n  N: .nan\n", "N"),
        ("users:\n  K_cd: six\n", "K_cd"),
    ],
)
def test_counts_must_be_integers(doc, field):
    # a fractional or boolean count would otherwise fail deep inside numpy or math.factorial
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        load_config(io.StringIO(doc))


def test_integral_counts_are_stored_as_int():
    cfg = load_config(io.StringIO("surface:\n  N: 16.0\nusers:\n  K_ed: 3.0\n"))
    assert type(cfg.N) is int and cfg.N == 16
    assert type(cfg.K_ed) is int and cfg.K_ed == 3
    assert type(dataclasses.replace(cfg, M_d=3.0).M_d) is int
    with pytest.raises(ConfigError, match="N must be an integer"):
        dataclasses.replace(cfg, N=True)

"""Rating-relation and label-provider tests."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from pkwbench.errors import (
    MissingGeometry,
    NonPhysical,
    OutOfRange,
    ParseError,
    UnitError,
)
from pkwbench.geometry import PkwDerived, PkwFixed, PkwSample, derive
from pkwbench.hydraulics import (
    GRAVITY,
    LabeledSample,
    OracleConfig,
    cd_from_head,
    discharge_from_cd,
    head_from_cd,
    ingest_labels,
    paper_schedule,
    synthetic_cd,
    total_head,
    _oracle_ranges,
)
from pkwbench.sampling import enumerate_grid, generate_batch, paper_default_space, screening_space

FIXED = PkwFixed()

# frozen hand evaluations of the rating relation
CD_HAND = 0.3741508926645123
HT_HAND = 0.1027565386474988


def test_gravity_constant():
    assert GRAVITY == 9.81


def test_total_head_hand_case():
    fc = total_head(0.1, 0.1, FIXED)
    assert fc.v == pytest.approx(0.1 / 0.43, rel=1e-12)
    assert fc.H_t == pytest.approx(HT_HAND, rel=1e-12)
    assert fc.H_t == pytest.approx(0.10276, abs=5e-6)
    assert fc.H_t > fc.h_t


def test_total_head_limits():
    tiny = total_head(1e-9, 0.1, FIXED)
    assert tiny.H_t == pytest.approx(0.1, abs=1e-12)
    wide = dataclasses.replace(FIXED, W=2.0)
    assert total_head(0.1, 0.1, wide).v == pytest.approx(
        total_head(0.1, 0.1, FIXED).v / 2.0, rel=1e-12)
    with pytest.raises(NonPhysical):
        total_head(-0.1, 0.1, FIXED)
    with pytest.raises(NonPhysical):
        total_head(0.1, 0.0, FIXED)


def test_cd_hand_oracle():
    assert cd_from_head(0.1, 4.0, 0.08) == pytest.approx(CD_HAND, rel=1e-12)
    assert cd_from_head(0.1, 4.0, 0.08) == pytest.approx(0.37415, abs=1e-4)


def test_rating_relation_round_trips():
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        Q = float(rng.uniform(1e-3, 10.0))
        L = float(rng.uniform(0.1, 50.0))
        H = float(rng.uniform(1e-3, 2.0))
        cd = cd_from_head(Q, L, H)
        assert discharge_from_cd(cd, L, H) == pytest.approx(Q, rel=1e-12)
        assert head_from_cd(cd, L, Q) == pytest.approx(H, rel=1e-12)


def test_cd_linearity_and_scaling():
    base = cd_from_head(0.1, 4.0, 0.08)
    assert cd_from_head(0.2, 4.0, 0.08) == pytest.approx(2 * base, rel=1e-12)
    assert discharge_from_cd(base, 4.0, 0.16) == pytest.approx(
        discharge_from_cd(base, 4.0, 0.08) * 2**1.5, rel=1e-12)
    # c_D is dimensionless: invariant under (Q, L, H) -> (l^2.5 Q, l L, l H)
    rng = np.random.default_rng(5)
    for lam in rng.uniform(0.1, 10.0, size=50):
        scaled = cd_from_head(0.1 * lam**2.5, 4.0 * lam, 0.08 * lam)
        assert scaled == pytest.approx(base, rel=1e-12)


def test_head_from_cd_hand_case():
    assert head_from_cd(CD_HAND, 4.0, 0.1) == pytest.approx(0.08, rel=1e-12)
    with pytest.raises(NonPhysical):
        head_from_cd(0.0, 4.0, 0.1)


def test_paper_schedule():
    sched = paper_schedule()
    assert len(sched) == 19
    vals = tuple(sched)
    assert vals == (50, 55, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150,
                    160, 170, 180, 190, 200, 225, 250)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert sched.as_m3s()[0] == pytest.approx(0.05)
    assert sched.as_m3s()[-1] == pytest.approx(0.25)


def _anchor_derived(**overrides):
    B_min, B_max, t3_min, t3_max, w_min, w_max = _oracle_ranges(FIXED)
    values = dict(W_u=FIXED.W_u, B_i=0.0, B_o=0.0, B=B_min, alpha=0.0,
                  T_s2=0.0, delta_T_s=0.0, T_s3=t3_min, W_o_u=w_min,
                  W_o_d=w_min, L_u=1.0, L=3.0)
    values.update(overrides)
    return PkwDerived(**values)


def test_synthetic_anchor_value():
    # every model term at its zero point gives the 0.40 base exactly
    assert synthetic_cd(_anchor_derived(), 0.05) == 0.40


def test_synthetic_term_effects():
    B_min, B_max, t3_min, t3_max, w_min, w_max = _oracle_ranges(FIXED)
    assert synthetic_cd(_anchor_derived(), 0.25) == pytest.approx(0.30, rel=1e-12)
    assert synthetic_cd(_anchor_derived(B=B_max), 0.05) == pytest.approx(0.35, rel=1e-12)
    assert synthetic_cd(_anchor_derived(T_s3=t3_max), 0.05) == pytest.approx(0.36, rel=1e-12)
    mid_w = 0.5 * (w_min + w_max)
    assert synthetic_cd(_anchor_derived(W_o_d=mid_w), 0.05) == pytest.approx(0.45, rel=1e-12)
    assert synthetic_cd(_anchor_derived(W_o_d=w_max), 0.05) == pytest.approx(0.40, rel=1e-12)
    steep = _anchor_derived(alpha=math.radians(4.0))
    assert synthetic_cd(steep, 0.05) == pytest.approx(
        0.40 + 0.12 * (1 - math.exp(-1.0)), rel=1e-12)


def test_synthetic_domain_gate():
    with pytest.raises(OutOfRange):
        synthetic_cd(_anchor_derived(), 0.03)
    with pytest.raises(OutOfRange):
        synthetic_cd(_anchor_derived(), 0.26)
    synthetic_cd(_anchor_derived(), 0.05)
    synthetic_cd(_anchor_derived(), 0.25)


def test_synthetic_monotonicity():
    batch = generate_batch(paper_default_space(), 1000, seed=77)
    for s in batch.samples:
        d = derive(FIXED, s)
        lo_q = synthetic_cd(d, 0.10)
        hi_q = synthetic_cd(d, 0.101)
        assert hi_q < lo_q
        steeper = dataclasses.replace(d, alpha=d.alpha + 1e-4)
        assert synthetic_cd(steeper, 0.10) > lo_q


def test_synthetic_envelope_over_screening_grid():
    lo, hi = np.inf, -np.inf
    for s in enumerate_grid(screening_space()):
        d = derive(FIXED, s)
        for q in (0.05, 0.25):
            c = synthetic_cd(d, q)
            lo, hi = min(lo, c), max(hi, c)
    assert lo == pytest.approx(0.2274423720963698, rel=1e-12)
    assert hi == pytest.approx(0.5681880441580388, rel=1e-12)
    # analytic construction bounds for the noise-free model
    assert lo >= 0.21 - 1e-12
    assert hi <= 0.57 + 1e-12


def test_synthetic_reaches_its_analytic_floor():
    # the all-penalties corner design evaluates to the exact model minimum
    t_s = 0.0594
    w = FIXED.W_u - 2 * t_s - 0.0099
    corner = PkwSample(B_b=0.5511, R_B_i=1.0, T_s=t_s, W_i_u=w, W_i_d=w)
    d = derive(FIXED, corner)
    assert synthetic_cd(d, 0.25) == pytest.approx(0.21, rel=1e-9)


def test_synthetic_noise_seeding():
    d = _anchor_derived()
    cfg = OracleConfig(sigma=0.005)
    a = synthetic_cd(d, 0.05, cfg, seed=3)
    b = synthetic_cd(d, 0.05, cfg, seed=3)
    c = synthetic_cd(d, 0.05, cfg, seed=4)
    assert a == b
    assert a != c
    draws = np.array([synthetic_cd(d, 0.05, cfg, seed=k) for k in range(2000)])
    assert draws.std() == pytest.approx(0.005, rel=0.1)
    assert draws.mean() == pytest.approx(0.40, abs=5e-4)


def test_labeled_sample_gates():
    with pytest.raises(ValueError):
        LabeledSample(geometry_id="g", Q=0.1, c_D=0.4, source="guess")
    with pytest.raises(ValueError):
        LabeledSample(geometry_id="g", Q=0.1, c_D=0.0, source="manual")


def test_ingest_labels_direct_and_derived(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        "geometry_id,Q_lps,H_t_m,c_D\n"
        "g1,100,0.08,\n"
        "g2,100,,0.41\n")
    rows = ingest_labels(path, {"g1": 4.0, "g2": 5.0})
    assert len(rows) == 2
    assert rows[0].geometry_id == "g1"
    assert rows[0].Q == pytest.approx(0.1)
    assert rows[0].c_D == pytest.approx(CD_HAND, rel=1e-12)
    assert rows[0].source == "cfd-csv"
    assert rows[1].c_D == 0.41


def test_ingest_labels_from_flow_depth(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("geometry_id,Q_lps,h_t_m\ng1,100,0.1\n")
    row, = ingest_labels(path, {"g1": 4.0})
    assert row.H_t == pytest.approx(HT_HAND, rel=1e-12)
    assert row.c_D == pytest.approx(cd_from_head(0.1, 4.0, HT_HAND), rel=1e-12)


def test_ingest_labels_duplicate_last_wins(tmp_path, caplog):
    path = tmp_path / "labels.csv"
    path.write_text(
        "geometry_id,Q_lps,c_D\n"
        "g1,100,0.40\n"
        "g1,110,0.39\n"
        "g1,100,0.42\n")
    with caplog.at_level(logging.WARNING, logger="pkwbench.hydraulics"):
        rows = ingest_labels(path, {"g1": 4.0})
    assert [(r.Q, r.c_D) for r in rows] == [(0.1, 0.42), (0.11, 0.39)]
    assert "1 duplicate" in caplog.text


def test_ingest_labels_of_latin1_text_raise_a_parse_error(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_bytes("geometry_id,Q_lps,c_D\ng1,100,0.4 # débit\n".encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8 text") as err:
        ingest_labels(path, {"g1": 4.0})
    assert str(path) in str(err.value)


def test_ingest_labels_errors(tmp_path):
    mapping = {"g1": 4.0}

    p = tmp_path / "a.csv"
    p.write_text("geometry_id,Q_lps,c_D\ngX,100,0.4\n")
    with pytest.raises(MissingGeometry):
        ingest_labels(p, mapping)

    p = tmp_path / "b.csv"
    p.write_text("geometry_id,Q_m3s,c_D\ng1,0.1,0.4\n")
    with pytest.raises(UnitError):
        ingest_labels(p, mapping)

    p = tmp_path / "c.csv"
    p.write_text("geometry_id,Q_lps,c_D\ng1,0.1,0.4\n")
    with pytest.raises(UnitError):
        ingest_labels(p, mapping)

    p = tmp_path / "d.csv"
    p.write_text("geometry_id,Q_lps,c_D\ng1,-5,0.4\n")
    with pytest.raises(ParseError) as err:
        ingest_labels(p, mapping)
    assert err.value.row == 2

    p = tmp_path / "e.csv"
    p.write_text("geometry_id,Q_lps,c_D\ng1,100,0.4\ng1,110,\n")
    with pytest.raises(ParseError) as err:
        ingest_labels(p, mapping)
    assert err.value.row == 3

    p = tmp_path / "f.csv"
    p.write_text("geometry_id,Q_lps,c_D\ng1,abc,0.4\n")
    with pytest.raises(ParseError):
        ingest_labels(p, mapping)

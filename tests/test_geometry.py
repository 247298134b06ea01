"""Checks for the parametric weir model.

Expected values were worked out by hand (calculator / one-line REPL
arithmetic) before the implementation and are frozen here.
"""

import math

import numpy as np
import pytest

from pkwbench.errors import DegenerateGeometry, NonPositiveOutletWidth, ParseError
from pkwbench.geometry import (
    FEATURE_NAMES,
    PkwFixed,
    PkwSample,
    crest_length,
    derive,
    feasible_bounds,
    feature_vector,
    plan_halfwidths,
    read_params,
    validate,
    write_params,
)

FIXED = PkwFixed()
HAND = PkwSample(B_b=0.40, R_B_i=0.5, T_s=0.02, W_i_u=0.20, W_i_d=0.14)

# Hand-evaluated derived values for HAND (atan(0.06/1.56) and friends).
HAND_ALPHA = 0.03844259002118798
HAND_ALPHA_DEG = 2.2025981617658053
HAND_T_S2 = 0.020014787432704136
HAND_DELTA = 0.0007692307692307691
HAND_T_S3 = 0.019245556663473367
HAND_W_O_U = 0.09484222000638656
HAND_W_O_D = 0.15484222000638656
HAND_L_U = 1.8745163279496642
HAND_L = 5.623548983848993


def random_feasible(rng, fixed=FIXED, n=1):
    """Rejection-sample n feasible designs from the box."""
    bounds = feasible_bounds(fixed)
    out = []
    while len(out) < n:
        cand = PkwSample(
            B_b=rng.uniform(*bounds["B_b"]),
            R_B_i=rng.uniform(*bounds["R_B_i"]),
            T_s=rng.uniform(*bounds["T_s"]),
            W_i_u=rng.uniform(*bounds["W_i_u"]),
            W_i_d=rng.uniform(*bounds["W_i_d"]),
        )
        if validate(fixed, cand).feasible:
            out.append(cand)
    return out


def test_derive_hand_example():
    d = derive(FIXED, HAND)
    assert d.B == pytest.approx(0.80, abs=1e-15)
    assert d.B_i == pytest.approx(0.20, abs=1e-15)
    assert d.B_o == pytest.approx(0.20, abs=1e-15)
    assert d.alpha == pytest.approx(HAND_ALPHA, rel=1e-12)
    assert d.T_s2 == pytest.approx(HAND_T_S2, rel=1e-12)
    assert d.delta_T_s == pytest.approx(HAND_DELTA, rel=1e-12)
    assert d.T_s3 == pytest.approx(HAND_T_S3, rel=1e-12)
    assert d.W_o_u == pytest.approx(HAND_W_O_U, rel=1e-12)
    assert d.W_o_d == pytest.approx(HAND_W_O_D, rel=1e-12)
    assert d.L_u == pytest.approx(HAND_L_U, rel=1e-12)
    assert d.L == pytest.approx(HAND_L, rel=1e-12)


def test_derive_rectangular_degeneracy():
    s = PkwSample(B_b=0.40, R_B_i=0.5, T_s=0.02, W_i_u=0.17, W_i_d=0.17)
    d = derive(FIXED, s)
    assert d.alpha == 0.0
    assert d.T_s2 == 0.02
    assert d.T_s3 == 0.02
    assert d.delta_T_s == 0.0
    # 2B + W_u closed form
    assert d.L_u == pytest.approx(2 * 0.8 + FIXED.W_u, rel=1e-15)
    assert d.L == pytest.approx(5.8, rel=1e-15)


def test_derive_identities_random():
    rng = np.random.default_rng(1234)
    for s in random_feasible(rng, n=200):
        d = derive(FIXED, s)
        assert math.cos(d.alpha) * d.T_s2 == pytest.approx(s.T_s, rel=1e-14)
        assert d.T_s3 + d.delta_T_s == pytest.approx(d.T_s2, rel=1e-14)
        assert d.W_o_d - d.W_o_u == pytest.approx(s.W_i_u - s.W_i_d, rel=1e-12, abs=1e-15)
        assert d.B == pytest.approx(s.B_b + d.B_i + d.B_o, rel=1e-15)
        assert 0.0 <= d.alpha < math.pi / 2
        assert d.T_s3 <= s.T_s <= d.T_s2
        assert d.L == pytest.approx(FIXED.N_u * d.L_u, rel=1e-15)
        # crest length closed form: the zigzag evaluates to a one-liner
        closed = 2 * d.B / math.cos(d.alpha) + FIXED.W_u - (s.W_i_u - s.W_i_d)
        assert d.L_u == pytest.approx(closed, rel=1e-13)


def test_derive_is_pure():
    a = derive(FIXED, HAND)
    b = derive(FIXED, HAND)
    assert a == b


def test_derive_errors():
    with pytest.raises(ValueError):
        derive(FIXED, PkwSample(B_b=0.4, R_B_i=0.5, T_s=0.02, W_i_u=0.14, W_i_d=0.20))
    with pytest.raises(DegenerateGeometry):
        derive(FIXED, PkwSample(B_b=0.001, R_B_i=0.5, T_s=0.05, W_i_u=0.1, W_i_d=0.1))
    # walls thick enough to eat the whole outlet key
    with pytest.raises(NonPositiveOutletWidth):
        derive(FIXED, PkwSample(B_b=0.4, R_B_i=0.5, T_s=0.07, W_i_u=0.30, W_i_d=0.30))


def test_sample_defaults_and_positivity():
    s = PkwSample(B_b=0.4, R_B_i=0.5, T_s=0.02, W_i_u=0.2, W_i_d=0.14)
    assert s.R_B_o == s.R_B_i
    s2 = PkwSample(B_b=0.4, R_B_i=0.5, T_s=0.02, W_i_u=0.2, W_i_d=0.14, R_B_o=0.75)
    assert s2.R_B_o == 0.75
    with pytest.raises(ValueError):
        PkwSample(B_b=-0.1, R_B_i=0.5, T_s=0.02, W_i_u=0.2, W_i_d=0.14)


def test_validate_bounds_inclusive():
    P = FIXED.P
    s = PkwSample(B_b=0.33 * P, R_B_i=0.25, T_s=0.015 * P,
                  W_i_u=0.03 * P, W_i_d=0.03 * P)
    rep = validate(FIXED, s)
    assert rep.feasible and not rep.violations


def test_validate_flags_each_bound():
    P = FIXED.P
    base = dict(B_b=0.40, R_B_i=0.5, T_s=0.02, W_i_u=0.20, W_i_d=0.14)
    bad = [
        dict(base, B_b=0.32 * P), dict(base, B_b=1.70 * P),
        dict(base, R_B_i=0.20), dict(base, R_B_i=1.10),
        dict(base, T_s=0.014 * P), dict(base, T_s=0.19 * P),
        dict(base, W_i_u=0.02 * P, W_i_d=0.02 * P),
        dict(base, W_i_u=0.33),
    ]
    for kw in bad:
        rep = validate(FIXED, PkwSample(**kw))
        assert not rep.feasible, kw
    # swapped widths give the ordering violation explicitly
    rep = validate(FIXED, PkwSample(B_b=0.4, R_B_i=0.5, T_s=0.02, W_i_u=0.14, W_i_d=0.20))
    assert any(v.constraint == "W_i_u >= W_i_d" for v in rep.violations)


def test_validate_upper_width_bound_tracks_wall_thickness():
    P = FIXED.P
    T_s = 0.18 * P
    w_hi = FIXED.W_u - 2 * T_s - 0.03 * P
    # W_i_d wide enough that the tapered downstream crest wall keeps a width
    ok = PkwSample(B_b=0.40, R_B_i=0.5, T_s=T_s, W_i_u=w_hi, W_i_d=0.05)
    bad = PkwSample(B_b=0.40, R_B_i=0.5, T_s=T_s, W_i_u=w_hi + 0.005, W_i_d=0.05)
    assert validate(FIXED, ok).feasible
    rep = validate(FIXED, bad)
    assert any(v.constraint == "W_i_u <= W_u - 2 T_s - 0.03 P" for v in rep.violations)


def test_validate_reports_all_violations():
    P = FIXED.P
    s = PkwSample(B_b=0.32 * P, R_B_i=0.2, T_s=0.19 * P, W_i_u=0.2, W_i_d=0.14)
    rep = validate(FIXED, s)
    assert len(rep.violations) >= 3


def test_plan_gap_equals_transverse_thickness():
    rng = np.random.default_rng(77)
    for s in random_feasible(rng, n=20):
        d = derive(FIXED, s)
        h_i, h_o = plan_halfwidths(d, FIXED)
        for x in rng.uniform(s.T_s, d.B, size=100):
            gap = (FIXED.W_u / 2 - h_i.value(x)) - h_o.value(x)
            assert gap == pytest.approx(d.T_s2, rel=1e-12)


def test_crest_length_matches_derive():
    rng = np.random.default_rng(5)
    for s in random_feasible(rng, n=50):
        d = derive(FIXED, s)
        L_u, L = crest_length(d, FIXED)
        assert L_u == pytest.approx(d.L_u, rel=1e-12)
        assert L == pytest.approx(d.L, rel=1e-12)


def test_feature_vector():
    d = derive(FIXED, HAND)
    v = feature_vector(d, 0.1)
    assert v.shape == (9,)
    assert len(FEATURE_NAMES) == 9
    np.testing.assert_allclose(
        v,
        [0.1, 0.20, 0.20, 0.80, HAND_ALPHA_DEG, HAND_T_S2, HAND_T_S3,
         HAND_W_O_U, HAND_W_O_D],
        rtol=1e-12,
    )
    rect = derive(FIXED, PkwSample(B_b=0.4, R_B_i=0.5, T_s=0.02, W_i_u=0.17, W_i_d=0.17))
    assert feature_vector(rect, 0.05)[4] == 0.0


def test_params_roundtrip(tmp_path):
    rng = np.random.default_rng(99)
    records = []
    for i, s in enumerate(random_feasible(rng, n=8)):
        records.append((f"g{i:06d}", FIXED, s, derive(FIXED, s)))
    path = tmp_path / "params.csv"
    write_params(path, records)
    back = read_params(path)
    assert [r[0] for r in back] == [r[0] for r in records]
    for (_, _, s0, d0), (_, _, s1, d1) in zip(records, back):
        assert s1.B_b == pytest.approx(s0.B_b, rel=1e-8)
        assert d1.L == pytest.approx(d0.L, rel=1e-7)


def test_params_reader_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("geometry_id,nope\n")
    with pytest.raises(ParseError):
        read_params(path)

    good = tmp_path / "params.csv"
    d = derive(FIXED, HAND)
    write_params(good, [("g000000", FIXED, HAND, d)])
    lines = good.read_text().splitlines()
    corrupt = tmp_path / "corrupt.csv"
    corrupt.write_text(lines[0] + "\n" + lines[1].replace("0.4", "zz", 1) + "\n")
    with pytest.raises(ParseError) as err:
        read_params(corrupt)
    assert err.value.row == 2


def test_params_reader_checks_stored_crest_length(tmp_path):
    d = derive(FIXED, HAND)
    path = tmp_path / "params.csv"
    write_params(path, [("g000000", FIXED, HAND, d)])
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[-1] = f"{d.L * 1.5:.9g}"
    path.write_text(lines[0] + "\n" + ",".join(cells) + "\n")
    with pytest.raises(ParseError):
        read_params(path)

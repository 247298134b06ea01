"""Design-space sampling tests."""

import dataclasses
import math

import numpy as np
import pytest

from pkwbench.errors import GridTooLarge, InfeasibleSpace
from pkwbench.geometry import PkwFixed, PkwSample, feasible_bounds, validate
from pkwbench.sampling import (
    VARIABLE_NAMES,
    DesignSpace,
    discretize,
    enumerate_grid,
    generate_batch,
    grid_shape,
    grid_size,
    lhs_raw,
    paper_default_space,
    screening_space,
)

FIXED = PkwFixed()


def as_matrix(samples):
    return np.array([(s.B_b, s.R_B_i, s.T_s, s.W_i_u, s.W_i_d) for s in samples])


def test_default_space_box_matches_feasible_bounds():
    space = paper_default_space()
    bounds = feasible_bounds(FIXED)
    for j, name in enumerate(VARIABLE_NAMES):
        assert space.lower[j] == bounds[name][0]
        assert space.upper[j] == bounds[name][1]
    assert space.step == (0.005, 0.05, 0.005, 0.005, 0.005)


def test_space_rejects_bad_axes():
    space = paper_default_space()
    with pytest.raises(ValueError):
        dataclasses.replace(space, upper=(0.05,) + space.upper[1:])
    with pytest.raises(ValueError):
        dataclasses.replace(space, step=(0.0,) + space.step[1:])
    with pytest.raises(ValueError):
        dataclasses.replace(space, step=space.step[:4])


@pytest.mark.parametrize("n", [1, 10, 137, 1000])
def test_lhs_stratification(n):
    space = paper_default_space()
    samples = lhs_raw(space, n, seed=5)
    mat = as_matrix(samples)
    assert mat.shape == (n, 5)
    for j in range(5):
        lo, hi = space.lower[j], space.upper[j]
        assert np.all(mat[:, j] >= lo) and np.all(mat[:, j] < hi)
        bins = np.floor(n * (mat[:, j] - lo) / (hi - lo)).astype(int)
        assert sorted(bins) == list(range(n))


def test_lhs_determinism():
    space = paper_default_space()
    a = as_matrix(lhs_raw(space, 64, seed=9))
    b = as_matrix(lhs_raw(space, 64, seed=9))
    c = as_matrix(lhs_raw(space, 64, seed=10))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_discretize_hand_cases():
    space = paper_default_space()
    s = PkwSample(B_b=0.4012, R_B_i=0.47, T_s=0.02, W_i_u=0.2, W_i_d=0.14)
    d = discretize(s, space)
    # 0.4012 is 58.46 steps above the 0.1089 lower bound, so it snaps down
    assert d.B_b == pytest.approx(0.3989, abs=1e-12)
    assert d.R_B_i == pytest.approx(0.45, abs=1e-12)
    # the T_s grid is anchored at 0.00495, so 0.02 is 3.01 steps up
    assert d.T_s == pytest.approx(0.01995, abs=1e-12)


def test_discretize_idempotent_and_on_grid_fixed_point():
    space = paper_default_space()
    rng = np.random.default_rng(3)
    for cand in lhs_raw(space, 200, seed=int(rng.integers(2**32))):
        once = discretize(cand, space)
        twice = discretize(once, space)
        assert once.as_tuple() == twice.as_tuple()


def test_discretize_clamps_to_box():
    space = paper_default_space()
    wide = PkwSample(B_b=0.9, R_B_i=1.4, T_s=0.001, W_i_u=0.5, W_i_d=0.001)
    d = discretize(wide, space)
    assert d.B_b == pytest.approx(space.lower[0] + 88 * 0.005, abs=1e-12)
    assert d.R_B_i == pytest.approx(1.0, abs=1e-12)
    assert d.T_s == space.lower[2]
    assert d.W_i_d == space.lower[4]


def test_generate_batch_contract():
    space = paper_default_space()
    batch = generate_batch(space, 100, seed=1)
    assert batch.requested == 100
    assert len(batch.samples) == 100
    assert batch.rejected_count > 0
    keys = {s.as_tuple() for s in batch.samples}
    assert len(keys) == 100
    for s in batch.samples:
        assert validate(FIXED, s).feasible
        assert discretize(s, space).as_tuple() == s.as_tuple()
    again = generate_batch(space, 100, seed=1)
    assert [s.as_tuple() for s in again.samples] == [s.as_tuple() for s in batch.samples]
    other = generate_batch(space, 100, seed=2)
    assert [s.as_tuple() for s in other.samples] != [s.as_tuple() for s in batch.samples]


def test_generate_batch_infeasible_box():
    # box is a valid interval but sits entirely below the minimum key width
    space = paper_default_space()
    bad = dataclasses.replace(
        space,
        lower=space.lower[:3] + (0.002, space.lower[4]),
        upper=space.upper[:3] + (0.008, space.upper[4]),
    )
    with pytest.raises(InfeasibleSpace):
        generate_batch(bad, 2, seed=0)


def _narrow(space, j, values):
    """Shrink axis j to exactly the given grid values."""
    lo, hi = min(values), max(values)
    step = values[1] - values[0] if len(values) > 1 else 1.0
    return dataclasses.replace(
        space,
        lower=space.lower[:j] + (lo,) + space.lower[j + 1:],
        upper=space.upper[:j] + (hi + 1e-12,) + space.upper[j + 1:],
        step=space.step[:j] + (step,) + space.step[j + 1:],
    )


def test_enumerate_grid_lexicographic():
    space = paper_default_space()
    space = _narrow(space, 0, [0.15, 0.25, 0.35])
    space = _narrow(space, 1, [0.5, 0.75, 1.0])
    space = _narrow(space, 2, [0.02])
    space = _narrow(space, 3, [0.12])
    space = _narrow(space, 4, [0.12])
    got = [(s.B_b, s.R_B_i) for s in enumerate_grid(space)]
    want = [(b, r) for b in (0.15, 0.25, 0.35) for r in (0.5, 0.75, 1.0)]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_enumerate_grid_applies_constraints():
    space = paper_default_space()
    space = _narrow(space, 0, [0.35])
    space = _narrow(space, 1, [0.5])
    space = _narrow(space, 2, [0.02])
    widths = [0.0099, 0.1099, 0.2099]
    space = _narrow(space, 3, widths)
    space = _narrow(space, 4, widths)
    got = [(s.W_i_u, s.W_i_d) for s in enumerate_grid(space)]
    want = [(u, d) for u in widths for d in widths if u >= d]
    assert len(got) == 6
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_enumerate_grid_cap():
    space = paper_default_space()
    assert grid_shape(space) == (89, 16, 11, 61, 61)
    assert grid_size(space) == 58_285_744
    with pytest.raises(GridTooLarge):
        enumerate_grid(space)


def test_screening_grid_feasibility_ratio():
    space = screening_space()
    n_cand = grid_size(space)
    assert grid_shape(space) == (12, 16, 3, 7, 7)
    assert 15_000 <= n_cand <= 30_000
    n_feas = sum(1 for _ in enumerate_grid(space))
    assert n_feas == 11_691
    ratio = n_feas / n_cand
    assert 0.40 <= ratio <= 0.70

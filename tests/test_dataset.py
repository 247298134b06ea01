"""Manifest, split and file-format tests."""

import math

import pytest

from pkwbench.dataset import (
    DATA_FRACTIONS,
    DatasetManifest,
    GeometryRecord,
    OOD_GEOM_BINS,
    OOD_HEAD_BINS,
    policy_from_name,
    read_labels_csv,
    read_manifest,
    read_split_csv,
    split_id,
    split_ood_geom,
    split_ood_head,
    subset_fraction,
    synthesize_labels,
    write_labels_csv,
    write_manifest,
    write_split_csv,
)
from pkwbench.errors import EmptyBin, ParseError, TooFewGeometries
from pkwbench.geometry import PkwFixed, PkwSample, derive
from pkwbench.hydraulics import LabeledSample, OracleConfig, paper_schedule
from pkwbench.sampling import generate_batch, paper_default_space

FIXED = PkwFixed()


def _records(samples):
    out = {}
    for k, s in enumerate(samples):
        gid = f"g{k:06d}"
        out[gid] = GeometryRecord(geometry_id=gid, sample=s,
                                  derived=derive(FIXED, s))
    return out


@pytest.fixture(scope="module")
def manifest():
    batch = generate_batch(paper_default_space(), 60, seed=21)
    geoms = _records(batch.samples)
    labels = synthesize_labels(geoms, paper_schedule(), OracleConfig(), seed=4)
    return DatasetManifest(geometries=geoms, labels=labels,
                           provenance={"master_seed": 21})


def _clone_manifest(n):
    """Manifest with n copies of one geometry, one label each."""
    base = PkwSample(B_b=0.40, R_B_i=0.5, T_s=0.02, W_i_u=0.20, W_i_d=0.14)
    geoms = _records([base] * n)
    labels = [LabeledSample(geometry_id=g, Q=0.1, c_D=0.4, source="manual")
              for g in geoms]
    return DatasetManifest(geometries=geoms, labels=labels)


def test_manifest_rejects_bad_labels():
    base = _clone_manifest(3)
    with pytest.raises(ValueError):
        DatasetManifest(geometries=base.geometries, labels=[
            LabeledSample(geometry_id="nope", Q=0.1, c_D=0.4, source="manual")])
    dup = list(base.labels) + [base.labels[0]]
    with pytest.raises(ValueError):
        DatasetManifest(geometries=base.geometries, labels=dup)


def test_synthesize_labels_layout(manifest):
    assert len(manifest.labels) == 60 * 19
    gids = {lab.geometry_id for lab in manifest.labels}
    assert gids == set(manifest.geometries)
    assert all(lab.source == "synthetic" for lab in manifest.labels)
    assert all(lab.H_t is not None and lab.H_t > 0 for lab in manifest.labels)
    again = synthesize_labels(manifest.geometries, paper_schedule(),
                              OracleConfig(), seed=4)
    assert [(l.geometry_id, l.Q, l.c_D) for l in again] == \
        [(l.geometry_id, l.Q, l.c_D) for l in manifest.labels]


def test_split_id_partition_sizes(manifest):
    split = split_id(manifest, seed=0)
    parts = split.geometry_partition()
    counts = {p: sum(1 for v in parts.values() if v == p)
              for p in ("train", "val", "test")}
    assert counts == {"train": 48, "val": 6, "test": 6}
    assert len(split.train) + len(split.val) + len(split.test) == 60 * 19
    assert split.train | split.val | split.test == frozenset(manifest.pairs())


def test_split_id_geometry_consistency(manifest):
    split = split_id(manifest, seed=5)
    for pairs in (split.train, split.val, split.test):
        for gid, _ in pairs:
            curve = {p for p in manifest.pairs() if p[0] == gid}
            assert curve <= pairs
    again = split_id(manifest, seed=5)
    assert again.train == split.train and again.test == split.test
    other = split_id(manifest, seed=6)
    assert other.train != split.train


def test_split_id_paper_scale_counts():
    split = split_id(_clone_manifest(3794), seed=1)
    parts = split.geometry_partition()
    counts = {p: sum(1 for v in parts.values() if v == p)
              for p in ("train", "val", "test")}
    assert counts == {"train": 3036, "val": 379, "test": 379}


def test_split_id_small_counts():
    split = split_id(_clone_manifest(10), seed=0)
    parts = split.geometry_partition()
    counts = {p: sum(1 for v in parts.values() if v == p)
              for p in ("train", "val", "test")}
    assert counts == {"train": 8, "val": 1, "test": 1}
    with pytest.raises(TooFewGeometries):
        split_id(_clone_manifest(9), seed=0)


def _alpha_spread_manifest():
    samples = [
        # rectangular, alpha = 0
        PkwSample(B_b=0.40, R_B_i=0.5, T_s=0.02, W_i_u=0.17, W_i_d=0.17),
        # the hand design, alpha about 2.2 degrees
        PkwSample(B_b=0.40, R_B_i=0.5, T_s=0.02, W_i_u=0.20, W_i_d=0.14),
        # mid inclination
        PkwSample(B_b=0.30, R_B_i=0.5, T_s=0.02, W_i_u=0.22, W_i_d=0.14),
        # strong inclination
        PkwSample(B_b=0.20, R_B_i=0.5, T_s=0.01, W_i_u=0.25, W_i_d=0.05),
    ] * 5
    geoms = _records(samples)
    labels = synthesize_labels(geoms, paper_schedule(), OracleConfig(), seed=0)
    return DatasetManifest(geometries=geoms, labels=labels)


def test_ood_geom_bins_partition(manifest):
    spread = _alpha_spread_manifest()
    alphas = {gid: rec.derived.alpha_deg
              for gid, rec in spread.geometries.items()}
    assert min(alphas.values()) == 0.0
    assert max(alphas.values()) > 6.0

    seen = set()
    for bin_name in OOD_GEOM_BINS:
        split = split_ood_geom(spread, bin_name, seed=0)
        test_gids = {gid for gid, _ in split.test}
        assert not seen & test_gids
        seen |= test_gids
        lo, hi = OOD_GEOM_BINS[bin_name]
        assert all(lo <= alphas[g] < hi for g in test_gids)
        # coverage: every label lands somewhere
        assert split.train | split.val | split.test == frozenset(spread.pairs())
        # no geometry straddles train and test
        train_gids = {gid for gid, _ in split.train}
        val_gids = {gid for gid, _ in split.val}
        assert not test_gids & (train_gids | val_gids)
    assert seen == set(spread.geometries)


def test_ood_geom_rectangular_in_low_bin():
    spread = _alpha_spread_manifest()
    split = split_ood_geom(spread, "alpha_le2", seed=0)
    test_gids = {gid for gid, _ in split.test}
    for gid, rec in spread.geometries.items():
        if rec.derived.alpha_deg == 0.0:
            assert gid in test_gids


def test_ood_geom_empty_bin(manifest):
    rect_only = _clone_manifest(12)
    labels = rect_only.labels
    with pytest.raises(EmptyBin):
        # all clones are trapezoidal with alpha about 2.2 degrees
        split_ood_geom(rect_only, "alpha_ge6", seed=0)


def test_ood_head_bins(manifest):
    all_pairs = frozenset(manifest.pairs())
    covered = set()
    for bin_name, want in (
        ("q_le90", {50, 55, 60, 70, 80, 90}),
        ("q_100_160", {100, 110, 120, 130, 140, 150, 160}),
        ("q_ge170", {170, 180, 190, 200, 225, 250}),
    ):
        split = split_ood_head(manifest, bin_name, seed=0)
        test_q = {round(q * 1000) for _, q in split.test}
        assert test_q == want
        covered |= test_q
        assert split.train | split.val | split.test == all_pairs
        # every geometry trains and tests: pure head extrapolation
        assert {g for g, _ in split.test} == set(manifest.geometries)
        assert {g for g, _ in split.train | split.val} == set(manifest.geometries)
    assert covered == {round(v) for v in paper_schedule()}


def test_ood_head_empty_bin():
    m = _clone_manifest(12)  # labels only at Q = 100 l/s
    with pytest.raises(EmptyBin):
        split_ood_head(m, "q_ge170", seed=0)


def test_subset_fraction_nesting(manifest):
    base = split_id(manifest, seed=3)
    train_sets = {}
    for f in DATA_FRACTIONS:
        sub = subset_fraction(base, f, seed=11)
        assert sub.val == base.val and sub.test == base.test
        train_sets[f] = {gid for gid, _ in sub.train}
    for small, big in zip(DATA_FRACTIONS, DATA_FRACTIONS[1:]):
        assert train_sets[small] < train_sets[big]
    assert train_sets[1.0] == {gid for gid, _ in base.train}
    assert len(train_sets[0.1]) == round(48 * 0.1)


def test_subset_fraction_rules(manifest):
    base = split_id(manifest, seed=3)
    tiny = subset_fraction(base, 0.001, seed=0)
    assert len({gid for gid, _ in tiny.train}) == 1
    with pytest.raises(ValueError):
        subset_fraction(base, 0.0, seed=0)
    with pytest.raises(ValueError):
        subset_fraction(tiny, 0.5, seed=0)


def test_subset_fraction_paper_scale():
    split = split_id(_clone_manifest(3794), seed=1)
    sub = subset_fraction(split, 0.10, seed=2)
    assert len({gid for gid, _ in sub.train}) == 304


def test_manifest_round_trip(tmp_path, manifest):
    mpath = tmp_path / "manifest.jsonl"
    lpath = tmp_path / "labels.csv"
    write_manifest(mpath, manifest, FIXED)
    write_labels_csv(lpath, manifest.labels)
    labels = read_labels_csv(lpath)
    back, fixed = read_manifest(mpath, labels=labels)
    assert fixed == FIXED
    assert set(back.geometries) == set(manifest.geometries)
    for gid, rec in manifest.geometries.items():
        assert back.geometries[gid].sample.as_tuple() == rec.sample.as_tuple()
        assert back.geometries[gid].derived.L == rec.derived.L
    assert back.provenance["master_seed"] == 21
    assert len(back.labels) == len(manifest.labels)
    for a, b in zip(back.labels, manifest.labels):
        assert a.geometry_id == b.geometry_id
        assert a.Q == b.Q
        assert a.c_D == pytest.approx(b.c_D, rel=1e-5)
        assert a.source == b.source
    # deterministic bytes
    write_manifest(tmp_path / "again.jsonl", manifest, FIXED)
    assert (tmp_path / "again.jsonl").read_bytes() == mpath.read_bytes()


def test_manifest_lines_with_the_retired_path_keys_still_load(tmp_path, manifest):
    # manifests written before the unused mesh_path/cloud_path fields were
    # dropped carry both keys as null on every geometry line
    path = tmp_path / "manifest.jsonl"
    write_manifest(path, manifest, FIXED)
    lines = path.read_text().splitlines()
    assert all('"mesh_path"' not in line for line in lines)
    old = [lines[0]] + [line[:-1] + ', "cloud_path": null, "mesh_path": null}'
                        for line in lines[1:]]
    legacy = tmp_path / "legacy.jsonl"
    legacy.write_text("\n".join(old) + "\n")
    back, _ = read_manifest(legacy)
    assert set(back.geometries) == set(manifest.geometries)
    for gid, rec in manifest.geometries.items():
        assert back.geometries[gid].sample.as_tuple() == rec.sample.as_tuple()


@pytest.mark.parametrize("bad_line, detail", [
    ('[1, 2]', "not a JSON object"),
    ('{"kind": "design"}', "unknown record kind 'design'"),
    ('{"kind": "geometry", "geometry_id": "g9"}', "missing field 'params'"),
    ('{"kind": "geometry", "geometry_id": "g9", "params": {"B_b": 1}}', "argument"),
    ('{"kind": "geometry", "geometry_id": "g9", "params": {', "Expecting"),
])
def test_malformed_manifest_line_raises_parse_error(tmp_path, manifest, bad_line, detail):
    mpath = tmp_path / "manifest.jsonl"
    write_manifest(mpath, manifest, FIXED)
    lines = mpath.read_text().splitlines()
    lines.insert(2, bad_line)
    mpath.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=detail) as info:
        read_manifest(mpath)
    assert info.value.row == 3
    assert "line 3: " in str(info.value)


def test_split_round_trip(tmp_path, manifest):
    for split in (split_id(manifest, seed=0),
                  split_ood_geom(manifest, "alpha_3_5", seed=0),
                  split_ood_head(manifest, "q_le90", seed=0),
                  subset_fraction(split_id(manifest, seed=0), 0.4, seed=1)):
        path = tmp_path / f"{split.name}.csv"
        write_split_csv(path, split)
        back = read_split_csv(path)
        assert back.name == split.name
        assert back.policy == split.policy
        assert back.train == split.train
        assert back.val == split.val
        assert back.test == split.test


def test_policy_from_name():
    assert policy_from_name("id") == "id-by-geometry"
    assert policy_from_name("id-f40") == "fraction-subset"
    assert policy_from_name("ood-geom-alpha_le2") == "ood-geom-alpha"
    assert policy_from_name("ood-head-q_ge170") == "ood-head-q"
    with pytest.raises(KeyError):
        policy_from_name("mystery")

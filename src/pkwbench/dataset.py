"""Dataset assembly, benchmark splits, and their file formats.

The manifest joins geometry records with discharge-coefficient labels.
Splits operate on (geometry_id, Q) pairs: the in-distribution split keeps
whole rating curves together, the two out-of-distribution splits hold out
sidewall-inclination ranges respectively discharge ranges, and fraction
subsets shrink the training side for data-efficiency studies.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .atomic import _atomic_write
from .errors import EmptyBin, ParseError, TooFewGeometries, ZeroVariance
from .geometry import (  # feature_vector is imported from here too
    PkwDerived,
    PkwFixed,
    PkwSample,
    derive,
    feature_vector,
)
from .hydraulics import (
    DischargeSchedule,
    LabeledSample,
    OracleConfig,
    head_from_cd,
    synthetic_cd,
)

POLICY_ID = "id-by-geometry"
POLICY_OOD_GEOM = "ood-geom-alpha"
POLICY_OOD_HEAD = "ood-head-q"
POLICY_FRACTION = "fraction-subset"

# Sidewall-inclination test bins in degrees, half-open [lo, hi). The bin
# edges close the gaps a label like "3 to 5 degrees" would leave, so the
# three bins partition every possible design.
OOD_GEOM_BINS = {
    "alpha_le2": (0.0, 3.0),
    "alpha_3_5": (3.0, 6.0),
    "alpha_ge6": (6.0, math.inf),
}

# Discharge test bins in l/s, half-open [lo, hi). The edges sit between
# schedule points (90|100 and 160|170), splitting the 19-point operating
# schedule into its lower six, middle seven, and upper six entries without
# depending on exact float conversion of the values themselves.
OOD_HEAD_BINS = {
    "q_le90": (0.0, 95.0),
    "q_100_160": (95.0, 165.0),
    "q_ge170": (165.0, math.inf),
}

DATA_FRACTIONS = (0.10, 0.20, 0.40, 0.60, 0.80, 1.00)


@dataclass(frozen=True)
class GeometryRecord:
    geometry_id: str
    sample: PkwSample
    derived: PkwDerived


@dataclass(frozen=True)
class DatasetManifest:
    geometries: dict[str, GeometryRecord]
    labels: list[LabeledSample]
    provenance: dict = field(default_factory=dict)

    # each labeled geometry's c_D by discharge, built once per manifest;
    # nested, it takes no key tuples: about a third of a flat dict's bytes
    c_D: dict[str, dict[float, float]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c_D: dict[str, dict[float, float]] = {}
        for lab in self.labels:
            if lab.geometry_id not in self.geometries:
                raise ValueError(
                    f"label references unknown geometry {lab.geometry_id!r}")
            by_q = c_D.setdefault(lab.geometry_id, {})
            if lab.Q in by_q:
                raise ValueError(
                    f"duplicate label for {lab.geometry_id!r} at Q={lab.Q}")
            by_q[lab.Q] = lab.c_D
        object.__setattr__(self, "c_D", c_D)

    def pairs(self) -> list[tuple[str, float]]:
        return [(lab.geometry_id, lab.Q) for lab in self.labels]


@dataclass(frozen=True)
class SplitAssignment:
    name: str
    policy: str
    train: frozenset[tuple[str, float]]
    val: frozenset[tuple[str, float]]
    test: frozenset[tuple[str, float]]

    def __post_init__(self):
        if self.train & self.val or self.train & self.test or self.val & self.test:
            raise ValueError(f"split {self.name!r} has overlapping partitions")
        if self.policy in (POLICY_ID, POLICY_FRACTION):
            by_geom: dict[str, str] = {}
            for part, pairs in (("train", self.train), ("val", self.val),
                                ("test", self.test)):
                for gid, _ in pairs:
                    if by_geom.setdefault(gid, part) != part:
                        raise ValueError(
                            f"geometry {gid!r} straddles partitions in {self.name!r}")

    def geometry_partition(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for part, pairs in (("train", self.train), ("val", self.val),
                            ("test", self.test)):
            for gid, _ in pairs:
                out[gid] = part
        return out


def synthesize_labels(manifest_geometries: dict[str, GeometryRecord],
                      schedule: DischargeSchedule,
                      config: OracleConfig | None = None,
                      seed: int = 0) -> list[LabeledSample]:
    """Label every geometry at every schedule point with the synthetic oracle.

    Noise seeds derive from (seed, geometry rank, schedule rank), so the
    label of one (geometry, Q) cell never depends on how many other cells
    exist. H_t is back-computed so the rating relation round-trips.
    """
    config = config if config is not None else OracleConfig()
    labels: list[LabeledSample] = []
    for i, gid in enumerate(sorted(manifest_geometries)):
        rec = manifest_geometries[gid]
        for j, Q in enumerate(schedule.as_m3s()):
            cell_seed = int(np.random.SeedSequence([seed, i, j]).generate_state(1)[0])
            c_D = synthetic_cd(rec.derived, Q, config, seed=cell_seed)
            H_t = head_from_cd(c_D, rec.derived.L, Q)
            labels.append(LabeledSample(geometry_id=gid, Q=Q, c_D=c_D,
                                        H_t=H_t, source="synthetic"))
    return labels


def _pairs_by_geometry(manifest: DatasetManifest) -> dict[str, list[tuple[str, float]]]:
    out: dict[str, list[tuple[str, float]]] = {gid: [] for gid in manifest.geometries}
    for gid, q in manifest.pairs():
        out[gid].append((gid, q))
    return out


def require_id_split(n: int) -> None:
    """Raise TooFewGeometries unless :func:`split_id` can divide ``n``
    geometries: each of its validation and test tenths needs one."""
    if n < 10:
        raise TooFewGeometries(f"need at least 10 geometries, have {n}")


def split_id(manifest: DatasetManifest, seed: int) -> SplitAssignment:
    """80/10/10 split at the geometry level.

    Validation and test sizes are floored tenths of the geometry count;
    the remainder stays in training. Every label of a geometry follows it.
    """
    gids = sorted(manifest.geometries)
    n = len(gids)
    require_id_split(n)
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [gids[k] for k in order]
    n_val = n // 10
    n_test = n // 10
    n_train = n - n_val - n_test
    groups = {
        "train": shuffled[:n_train],
        "val": shuffled[n_train:n_train + n_val],
        "test": shuffled[n_train + n_val:],
    }
    pairs = _pairs_by_geometry(manifest)
    parts = {
        part: frozenset(p for gid in members for p in pairs[gid])
        for part, members in groups.items()
    }
    return SplitAssignment(name="id", policy=POLICY_ID, **parts)


def split_ood_geom(manifest: DatasetManifest, bin_name: str,
                   seed: int = 0) -> SplitAssignment:
    """Hold out one sidewall-inclination bin as the test set.

    Training covers the other bins; validation takes a seeded tenth of the
    training geometries (whole rating curves, like the test side).
    """
    if bin_name not in OOD_GEOM_BINS:
        raise KeyError(f"unknown inclination bin {bin_name!r}")
    lo, hi = OOD_GEOM_BINS[bin_name]
    test_gids = sorted(
        gid for gid, rec in manifest.geometries.items()
        if lo <= rec.derived.alpha_deg < hi)
    if not test_gids:
        raise EmptyBin(f"no geometries with alpha in [{lo}, {hi}) degrees")
    rest = sorted(set(manifest.geometries) - set(test_gids))
    if not rest:
        raise EmptyBin(f"no geometries left to train on outside {bin_name!r}")
    order = np.random.default_rng(seed).permutation(len(rest))
    n_val = len(rest) // 10
    val_gids = {rest[k] for k in order[:n_val]}
    pairs = _pairs_by_geometry(manifest)

    def collect(gids):
        return frozenset(p for gid in gids for p in pairs[gid])

    return SplitAssignment(
        name=f"ood-geom-{bin_name}", policy=POLICY_OOD_GEOM,
        train=collect(g for g in rest if g not in val_gids),
        val=collect(val_gids), test=collect(test_gids))


def split_ood_head(manifest: DatasetManifest, bin_name: str,
                   seed: int = 0) -> SplitAssignment:
    """Hold out one discharge bin as the test set.

    Every geometry keeps its remaining operating points in training, so
    the shift is purely along the discharge axis; validation takes a
    seeded tenth of the training pairs.
    """
    if bin_name not in OOD_HEAD_BINS:
        raise KeyError(f"unknown discharge bin {bin_name!r}")
    lo, hi = OOD_HEAD_BINS[bin_name]
    test, rest = [], []
    for gid, q in manifest.pairs():
        (test if lo <= q * 1000.0 < hi else rest).append((gid, q))
    if not test:
        raise EmptyBin(f"no labels with Q in [{lo}, {hi}) l/s")
    if not rest:
        raise EmptyBin(f"no labels left to train on outside {bin_name!r}")
    rest.sort()
    order = np.random.default_rng(seed).permutation(len(rest))
    n_val = len(rest) // 10
    val = {rest[k] for k in order[:n_val]}
    return SplitAssignment(
        name=f"ood-head-{bin_name}", policy=POLICY_OOD_HEAD,
        train=frozenset(p for p in rest if p not in val),
        val=frozenset(val), test=frozenset(test))


def subset_fraction(split: SplitAssignment, fraction: float,
                    seed: int) -> SplitAssignment:
    """Keep a seeded fraction of the training geometries.

    One permutation per seed drives every fraction, so smaller subsets are
    prefixes of larger ones. Validation and test stay untouched.
    """
    if split.policy != POLICY_ID:
        raise ValueError("fraction subsets are defined on the id-by-geometry split")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    gids = sorted({gid for gid, _ in split.train})
    order = np.random.default_rng(seed).permutation(len(gids))
    keep_n = max(1, round(len(gids) * fraction))
    keep = {gids[k] for k in order[:keep_n]}
    return SplitAssignment(
        name=f"{split.name}-f{round(fraction * 100):d}",
        policy=POLICY_FRACTION,
        train=frozenset(p for p in split.train if p[0] in keep),
        val=split.val, test=split.test)


# ---------------------------------------------------------------------------
# Persistence. The manifest is line-delimited JSON with one provenance
# record followed by one record per geometry; labels and splits are CSV.

_SAMPLE_FIELDS = ("B_b", "R_B_i", "R_B_o", "T_s", "W_i_u", "W_i_d")


def write_manifest(path, manifest: DatasetManifest, fixed: PkwFixed) -> None:
    with _atomic_write(path) as fh:
        head = {"kind": "provenance", "tool_version": __version__,
                "fixed": {"W": fixed.W, "P": fixed.P, "N_u": fixed.N_u}}
        head.update(manifest.provenance)
        fh.write(json.dumps(head, sort_keys=True) + "\n")
        for gid in sorted(manifest.geometries):
            rec = manifest.geometries[gid]
            row = {
                "kind": "geometry",
                "geometry_id": gid,
                "params": {k: getattr(rec.sample, k) for k in _SAMPLE_FIELDS},
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_manifest(path, labels: list[LabeledSample] | None = None
                  ) -> tuple[DatasetManifest, PkwFixed]:
    """Read a manifest written by :func:`write_manifest`, with the
    installation its provenance line stores, or the default one.

    A line that is not a JSON object, lacks a field, holds a field of the
    wrong type or value, or names an unknown record kind, as a line cut
    short does, raises :class:`ParseError` with the line number.
    """
    geometries: dict[str, GeometryRecord] = {}
    provenance: dict = {}
    fixed = PkwFixed()
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise ValueError("record is not a JSON object")
                kind = row.get("kind")
                if kind == "provenance":
                    provenance = {k: v for k, v in row.items() if k != "kind"}
                    stored = provenance.pop("fixed", None)
                    if stored is not None:
                        fixed = PkwFixed(W=stored["W"], P=stored["P"],
                                         N_u=stored["N_u"])
                elif kind == "geometry":
                    sample = PkwSample(**row["params"])
                    geometries[row["geometry_id"]] = GeometryRecord(
                        geometry_id=row["geometry_id"], sample=sample,
                        derived=derive(fixed, sample))
                else:
                    raise ValueError(f"unknown record kind {kind!r}")
            except (KeyError, TypeError, ValueError) as exc:
                detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                raise ParseError(
                    f"{path} line {line_no}: {detail}", row=line_no
                ) from None
    manifest = DatasetManifest(geometries=geometries,
                               labels=list(labels) if labels else [],
                               provenance=provenance)
    return manifest, fixed


_SPLIT_COLUMNS = ("geometry_id", "Q_lps", "partition")
_PARTITIONS = ("train", "val", "test")


def _read_csv(path, required, convert) -> list:
    """``convert`` applied to each row of a CSV file with a header.

    A row that lacks one of the ``required`` columns, as a row cut short
    does, or that ``convert`` rejects with ``ValueError`` raises
    :class:`ParseError` with the row's line number.
    """
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                missing = [c for c in required if row.get(c) is None]
                if missing:
                    raise ValueError(f"row lacks {', '.join(missing)}")
                out.append(convert(row))
            except ValueError as exc:
                raise ParseError(
                    f"{path} row {reader.line_num}: {exc}", row=reader.line_num
                ) from None
    return out


def write_labels_csv(path, labels: list[LabeledSample]) -> None:
    with _atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["geometry_id", "Q_lps", "H_t_m", "c_D", "source"])
        for lab in labels:
            writer.writerow([
                lab.geometry_id,
                f"{lab.Q * 1000.0:.9g}",
                "" if lab.H_t is None else f"{lab.H_t:.9g}",
                f"{lab.c_D:.6g}",
                lab.source,
            ])


def _label_from_row(row) -> LabeledSample:
    return LabeledSample(
        geometry_id=row["geometry_id"],
        Q=float(row["Q_lps"]) / 1000.0,
        H_t=float(row["H_t_m"]) if row.get("H_t_m") else None,
        c_D=float(row["c_D"]),
        source=row["source"])


def read_labels_csv(path) -> list[LabeledSample]:
    # the head column is optional
    required = ("geometry_id", "Q_lps", "c_D", "source")
    return _read_csv(path, required, _label_from_row)


_NAME_POLICY = (
    ("ood-geom-", POLICY_OOD_GEOM),
    ("ood-head-", POLICY_OOD_HEAD),
    ("id-f", POLICY_FRACTION),
    ("id", POLICY_ID),
)


def policy_from_name(name: str) -> str:
    for prefix, policy in _NAME_POLICY:
        if name == prefix or name.startswith(prefix):
            return policy
    raise KeyError(f"cannot infer split policy from name {name!r}")


def write_split_csv(path, split: SplitAssignment) -> None:
    with _atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SPLIT_COLUMNS)
        for part, pairs in (("train", split.train), ("val", split.val),
                            ("test", split.test)):
            for gid, q in sorted(pairs):
                writer.writerow([gid, f"{q * 1000.0:.9g}", part])


def _split_pair_from_row(row):
    part = row["partition"]
    if part not in _PARTITIONS:
        raise ValueError(f"unknown partition {part!r}")
    return part, (row["geometry_id"], float(row["Q_lps"]) / 1000.0)


def read_split_csv(path, name: str | None = None) -> SplitAssignment:
    stem = name if name is not None else os.path.splitext(os.path.basename(path))[0]
    try:
        policy = policy_from_name(stem)
    except KeyError:
        known = ", ".join(prefix for prefix, _ in _NAME_POLICY)
        raise ParseError(f"{path}: cannot infer a split policy from the name {stem!r}; "
                         f"a split name starts with one of {known}") from None
    parts: dict[str, set] = {part: set() for part in _PARTITIONS}
    for part, pair in _read_csv(path, _SPLIT_COLUMNS, _split_pair_from_row):
        parts[part].add(pair)
    return SplitAssignment(name=stem, policy=policy,
                           train=frozenset(parts["train"]),
                           val=frozenset(parts["val"]),
                           test=frozenset(parts["test"]))

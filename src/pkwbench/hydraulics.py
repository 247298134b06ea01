"""Head-discharge relations and discharge-coefficient label providers.

The rating relation used throughout is

    Q = (2/3) * c_D * L * sqrt(2 g) * H_t^1.5

with the total head H_t combining the flow depth above the crest and the
approach velocity head. Labels come either from a CSV of solver results or
from a fully synthetic closed-form provider used to exercise the benchmark
harness end to end.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .atomic import _utf8_lines
from .errors import MissingGeometry, NonPhysical, OutOfRange, ParseError, UnitError
from .geometry import PkwDerived, PkwFixed, feasible_bounds

log = logging.getLogger(__name__)

GRAVITY = 9.81  # m/s^2

LABEL_SOURCES = ("cfd-csv", "synthetic", "manual")


@dataclass(frozen=True)
class FlowCondition:
    Q: float    # discharge [m^3/s]
    h_t: float  # flow depth above the crest [m]
    H_t: float  # total head above the crest [m]
    v: float    # approach velocity [m/s]


@dataclass(frozen=True)
class LabeledSample:
    geometry_id: str
    Q: float              # [m^3/s]
    c_D: float
    H_t: float | None = None
    source: str = "manual"

    def __post_init__(self):
        if self.source not in LABEL_SOURCES:
            raise ValueError(f"unknown label source {self.source!r}")
        if not self.c_D > 0:
            raise ValueError("c_D must be positive")


@dataclass(frozen=True)
class DischargeSchedule:
    values_lps: tuple[float, ...]

    def __iter__(self):
        return iter(self.values_lps)

    def __len__(self):
        return len(self.values_lps)

    def as_m3s(self) -> tuple[float, ...]:
        return tuple(v / 1000.0 for v in self.values_lps)


_SCHEDULE_LPS = (50.0, 55.0, 60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0,
                 130.0, 140.0, 150.0, 160.0, 170.0, 180.0, 190.0, 200.0,
                 225.0, 250.0)


def paper_schedule() -> DischargeSchedule:
    """The 19-point operating schedule every geometry is labeled at."""
    return DischargeSchedule(values_lps=_SCHEDULE_LPS)


def total_head(Q: float, h_t: float, fixed: PkwFixed) -> FlowCondition:
    """Total head from discharge and crest-referenced flow depth.

    The approach velocity averages Q over the full flume cross-section at
    the upstream probe, W * (P + h_t).
    """
    if not (Q > 0 and h_t > 0):
        raise NonPhysical("Q and h_t must be positive")
    depth = fixed.P + h_t
    if depth <= 0:
        raise NonPhysical("approach flow depth must be positive")
    v = Q / (fixed.W * depth)
    H_t = v * v / (2.0 * GRAVITY) + h_t
    return FlowCondition(Q=Q, h_t=h_t, H_t=H_t, v=v)


def cd_from_head(Q: float, L: float, H_t: float) -> float:
    """Discharge coefficient from the rating relation."""
    if not (Q > 0 and L > 0 and H_t > 0):
        raise NonPhysical("Q, L and H_t must be positive")
    return 3.0 * Q / (2.0 * L * math.sqrt(2.0 * GRAVITY) * H_t ** 1.5)


def discharge_from_cd(c_D: float, L: float, H_t: float) -> float:
    """Rating relation solved for the discharge."""
    if not (c_D > 0 and L > 0 and H_t > 0):
        raise NonPhysical("c_D, L and H_t must be positive")
    return (2.0 / 3.0) * c_D * L * math.sqrt(2.0 * GRAVITY) * H_t ** 1.5


def head_from_cd(c_D: float, L: float, Q: float) -> float:
    """Rating relation solved for the total head."""
    if not (c_D > 0 and L > 0 and Q > 0):
        raise NonPhysical("c_D, L and Q must be positive")
    return (3.0 * Q / (2.0 * c_D * L * math.sqrt(2.0 * GRAVITY))) ** (2.0 / 3.0)


# one installation's ranges serve every cell that synthesize_labels labels
@functools.cache
def _oracle_ranges(fixed: PkwFixed) -> tuple[float, float, float, float, float, float]:
    """Min-max envelopes of B, T_s3 and W_o_d over the sampled box.

    All three follow from the box corners: B = B_b (1 + 2 R_B), the wall
    crest width T_s (1 - sin a) / cos a shrinks with inclination, which is
    steepest at minimal footprint and wall thickness, and the downstream
    outlet width peaks at that same corner.
    """
    b = feasible_bounds(fixed)
    B_min = b["B_b"][0] * (1.0 + 2.0 * b["R_B_i"][0])
    B_max = b["B_b"][1] * (1.0 + 2.0 * b["R_B_i"][1])
    t_lo = b["T_s"][0]
    tan_a_max = (b["W_i_u"][1] - b["W_i_d"][0]) / (2.0 * (B_min - t_lo))
    a_max = math.atan(tan_a_max)
    t3_min = t_lo * (1.0 - math.sin(a_max)) / math.cos(a_max)
    t3_max = b["T_s"][1]
    w_od_min = b["W_i_d"][0]
    w_od_max = fixed.W_u - b["W_i_d"][0] - 2.0 * t3_min
    return B_min, B_max, t3_min, t3_max, w_od_min, w_od_max


@dataclass(frozen=True)
class OracleConfig:
    """Settings for the synthetic label provider."""

    sigma: float = 0.0
    q_lo: float = 0.05   # m^3/s
    q_hi: float = 0.25   # m^3/s
    fixed: PkwFixed = field(default_factory=PkwFixed)


def synthetic_cd(derived: PkwDerived, Q: float,
                 config: OracleConfig | None = None, seed: int = 0) -> float:
    """Closed-form stand-in label with solver-like trends.

    Entirely fictitious coefficients: rises saturating with sidewall
    inclination, falls linearly with discharge, footprint length and wall
    crest width, and peaks for mid-range downstream outlet widths. Intended
    only to exercise the training and evaluation protocol; never a
    substitute for measured or simulated coefficients.
    """
    config = config if config is not None else OracleConfig()
    if not (config.q_lo <= Q <= config.q_hi):
        raise OutOfRange(
            f"Q={Q} m^3/s outside the oracle domain "
            f"[{config.q_lo}, {config.q_hi}] m^3/s")
    B_min, B_max, t3_min, t3_max, w_min, w_max = _oracle_ranges(config.fixed)
    q_hat = (Q * 1000.0 - 50.0) / 200.0
    b_hat = (derived.B - B_min) / (B_max - B_min)
    t_hat = (derived.T_s3 - t3_min) / (t3_max - t3_min)
    w_hat = (derived.W_o_d - w_min) / (w_max - w_min)
    value = (0.40
             + 0.12 * (1.0 - math.exp(-derived.alpha_deg / 4.0))
             - 0.10 * q_hat
             - 0.05 * b_hat
             - 0.04 * t_hat
             + 0.05 * 4.0 * w_hat * (1.0 - w_hat))
    if config.sigma > 0:
        value += np.random.default_rng(seed).normal(0.0, config.sigma)
    return value


_HEAD_COLUMNS = ("h_t_m", "H_t_m")
_Q_ALIASES = ("q", "q_m3s", "q_m3_s", "discharge")


def ingest_labels(path, crest_lengths: dict[str, float],
                  fixed: PkwFixed | None = None) -> list[LabeledSample]:
    """Parse a label CSV into LabeledSample records.

    Expected header: geometry_id, Q_lps, then h_t_m and/or H_t_m and/or
    c_D. Discharges are given in l/s and converted. Rows without c_D must
    carry a head column so the coefficient can be computed from the
    geometry's crest length. Duplicate (geometry_id, Q) rows keep the last
    value; the number of replacements is logged.
    """
    fixed = fixed if fixed is not None else PkwFixed()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(_utf8_lines(fh))
        header = reader.fieldnames or []
        if "Q_lps" not in header:
            for name in header:
                if name.strip().lower() in _Q_ALIASES:
                    raise UnitError(
                        f"discharge column {name!r} must be Q_lps (liters per second)")
            raise ParseError("missing required column Q_lps")
        if "geometry_id" not in header:
            raise ParseError("missing required column geometry_id")

        out: dict[tuple[str, float], LabeledSample] = {}
        duplicates = 0
        for row_no, row in enumerate(reader, start=2):
            gid = (row.get("geometry_id") or "").strip()
            if not gid:
                raise ParseError("empty geometry_id", row=row_no)
            if gid not in crest_lengths:
                raise MissingGeometry(f"row {row_no}: unknown geometry {gid!r}")
            try:
                q_lps = float(row["Q_lps"])
            except (TypeError, ValueError):
                raise ParseError(f"bad Q_lps {row.get('Q_lps')!r}", row=row_no)
            if q_lps <= 0:
                raise ParseError(f"Q_lps must be positive, got {q_lps}", row=row_no)
            if q_lps < 1.0:
                raise UnitError(
                    f"row {row_no}: Q_lps={q_lps} is below 1 l/s; "
                    "values look like m^3/s")
            Q = q_lps / 1000.0

            H_t = _optional_float(row, "H_t_m", row_no)
            h_t = _optional_float(row, "h_t_m", row_no)
            if H_t is None and h_t is not None:
                H_t = total_head(Q, h_t, fixed).H_t
            c_D = _optional_float(row, "c_D", row_no)
            if c_D is None:
                if H_t is None:
                    raise ParseError(
                        "row needs c_D or one of " + "/".join(_HEAD_COLUMNS),
                        row=row_no)
                c_D = cd_from_head(Q, crest_lengths[gid], H_t)
            if c_D <= 0:
                raise ParseError(f"c_D must be positive, got {c_D}", row=row_no)

            key = (gid, Q)
            if key in out:
                duplicates += 1
            out[key] = LabeledSample(geometry_id=gid, Q=Q, c_D=c_D, H_t=H_t,
                                     source="cfd-csv")
    if duplicates:
        log.warning("replaced %d duplicate (geometry, discharge) label rows",
                    duplicates)
    return list(out.values())


def _optional_float(row, column, row_no):
    raw = row.get(column)
    if raw is None or raw.strip() == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"bad {column} {raw!r}", row=row_no)

"""Parametric model of a type-A piano key weir.

The weir sits in a frame with x pointing downstream, y across the flume and z
up. A design is split into the fixed installation (:class:`PkwFixed`), the
sampled free parameters (:class:`PkwSample`) and quantities derived from them
(:class:`PkwDerived`). All lengths are meters and angles are radians unless a
name says otherwise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .atomic import _atomic_write
from .errors import DegenerateGeometry, NonPositiveOutletWidth

# Feasible box relative to the weir height P, bounds inclusive.
B_B_MIN_FACTOR = 0.33
B_B_MAX_FACTOR = 1.67
R_B_I_MIN = 0.25
R_B_I_MAX = 1.0
T_S_MIN_FACTOR = 0.015
T_S_MAX_FACTOR = 0.18
W_KEY_MARGIN_FACTOR = 0.03
_MIN_WIDTH = 1e-9      # plan footprints narrower than this are degenerate

FEATURE_NAMES = (
    "Q", "B_i", "B_o", "B", "alpha_deg", "T_s2", "T_s3", "W_o_u", "W_o_d",
)


@dataclass(frozen=True)
class PkwFixed:
    """Fixed installation parameters.

    Attributes:
        W: total weir width across the flume [m].
        P: weir height [m].
        N_u: number of weir units across the width.
    """

    W: float = 1.0
    P: float = 0.33
    N_u: int = 3

    def __post_init__(self):
        if self.W <= 0 or self.P <= 0:
            raise ValueError("W and P must be positive")
        if int(self.N_u) != self.N_u or self.N_u < 1:
            raise ValueError("N_u must be a positive integer")

    @property
    def W_u(self) -> float:
        """Width of a single unit [m]."""
        return self.W / self.N_u


@dataclass(frozen=True)
class PkwSample:
    """Free parameters of one design.

    Attributes:
        B_b: base (footprint) length in flow direction [m].
        R_B_i: downstream overhang ratio B_i / B_b.
        R_B_o: upstream overhang ratio B_o / B_b; defaults to R_B_i.
        T_s: wall thickness [m].
        W_i_u: inlet key width at the upstream crest [m].
        W_i_d: inlet key width at the downstream crest [m].
    """

    B_b: float
    R_B_i: float
    T_s: float
    W_i_u: float
    W_i_d: float
    R_B_o: float | None = None

    def __post_init__(self):
        if self.R_B_o is None:
            object.__setattr__(self, "R_B_o", self.R_B_i)
        for name in ("B_b", "R_B_i", "R_B_o", "T_s", "W_i_u", "W_i_d"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.B_b, self.R_B_i, self.R_B_o, self.T_s, self.W_i_u, self.W_i_d)


@dataclass(frozen=True)
class PkwDerived:
    """Quantities derived from a (fixed, sample) pair. Lengths in meters."""

    W_u: float
    B_i: float
    B_o: float
    B: float
    alpha: float          # sidewall plan inclination [rad]
    T_s2: float           # transverse wall thickness T_s / cos(alpha)
    delta_T_s: float      # T_s * tan(alpha)
    T_s3: float           # reduced corner thickness T_s2 - delta_T_s
    W_o_u: float
    W_o_d: float
    L_u: float            # developed crest length of one unit
    L: float              # developed crest length of the full weir

    @property
    def alpha_deg(self) -> float:
        return math.degrees(self.alpha)


@dataclass(frozen=True)
class Violation:
    """One failed feasibility check."""

    constraint: str
    actual: float
    bound: float


@dataclass(frozen=True)
class ValidationReport:
    feasible: bool
    violations: tuple[Violation, ...] = ()


@dataclass(frozen=True)
class Line:
    """Affine function value(x) = a + b * x, used for plan edges and ramps."""

    a: float
    b: float

    def value(self, x: float) -> float:
        return self.a + self.b * x


def _crest_unit_length(B, alpha, T_s, T_s2, W_u, h_i: Line, h_o: Line) -> float:
    # Two sidewalls along the full streamwise extent plus one transverse
    # crest band across the outlet opening and one across the inlet opening,
    # measured on the mid-thickness centerline.
    sidewalls = 2.0 * B / math.cos(alpha)
    across_outlet = 2.0 * h_o.value(0.5 * T_s) + T_s2
    across_inlet = 2.0 * h_i.value(B - 0.5 * T_s) + T_s2
    return sidewalls + across_outlet + across_inlet


def derive(fixed: PkwFixed, sample: PkwSample) -> PkwDerived:
    """Compute all derived quantities for one design.

    Raises:
        DegenerateGeometry: if B <= T_s, which collapses the plan model.
        NonPositiveOutletWidth: if a derived outlet width is not positive.
        ValueError: if W_i_u < W_i_d (the inlet key must not widen downstream).
    """
    W_u = fixed.W_u
    B_i = sample.R_B_i * sample.B_b
    B_o = sample.R_B_o * sample.B_b
    B = sample.B_b + B_i + B_o
    if B - sample.T_s <= 0.0:
        raise DegenerateGeometry(f"B = {B:.6g} m does not exceed T_s = {sample.T_s:.6g} m")
    if sample.W_i_u < sample.W_i_d:
        raise ValueError("W_i_u must be >= W_i_d")

    tan_alpha = (sample.W_i_u - sample.W_i_d) / (2.0 * (B - sample.T_s))
    alpha = math.atan(tan_alpha)
    T_s2 = sample.T_s / math.cos(alpha)
    delta_T_s = sample.T_s * tan_alpha
    T_s3 = T_s2 - delta_T_s
    W_o_u = W_u - sample.W_i_u - 2.0 * T_s3
    W_o_d = W_u - sample.W_i_d - 2.0 * T_s3
    if W_o_u <= 0.0 or W_o_d <= 0.0:
        raise NonPositiveOutletWidth(
            f"outlet widths must be positive, got W_o_u = {W_o_u:.6g} m, W_o_d = {W_o_d:.6g} m"
        )

    h_i = Line(0.5 * sample.W_i_u, -tan_alpha)
    h_o = Line(0.5 * W_o_u - delta_T_s, tan_alpha)
    L_u = _crest_unit_length(B, alpha, sample.T_s, T_s2, W_u, h_i, h_o)
    return PkwDerived(
        W_u=W_u, B_i=B_i, B_o=B_o, B=B, alpha=alpha, T_s2=T_s2,
        delta_T_s=delta_T_s, T_s3=T_s3, W_o_u=W_o_u, W_o_d=W_o_d,
        L_u=L_u, L=fixed.N_u * L_u,
    )


def plan_halfwidths(derived: PkwDerived, fixed: PkwFixed) -> tuple[Line, Line]:
    """Half-width lines of the plan model.

    h_i(x) is the inlet key half-width about the unit centerline; h_o(x) is
    the outlet key half-width about the unit boundary. W_i_u is reconstructed
    from the derived widths, so only (derived, fixed) are needed.
    """
    tan_alpha = math.tan(derived.alpha)
    W_i_u = fixed.W_u - 2.0 * derived.T_s3 - derived.W_o_u
    h_i = Line(0.5 * W_i_u, -tan_alpha)
    h_o = Line(0.5 * derived.W_o_u - derived.delta_T_s, tan_alpha)
    return h_i, h_o


def unit_plan_edges(derived: PkwDerived, fixed: PkwFixed) -> list[tuple[Line, ...]]:
    """The six plan edges of each unit, in y order.

    Unit u spans y in [u W_u, (u + 1) W_u]. Its edges are the lower unit
    boundary, the outlet and inlet faces of the lower sidewall, the inlet
    and outlet faces of the upper sidewall, and the upper unit boundary.
    Neighbouring units share their boundary as one ``Line`` object.
    """
    W_u = fixed.W_u
    h_i, h_o = plan_halfwidths(derived, fixed)
    boundaries = [Line(u * W_u, 0.0) for u in range(fixed.N_u + 1)]
    out = []
    for u in range(fixed.N_u):
        y_off = u * W_u
        out.append((
            boundaries[u],
            Line(y_off + h_o.a, h_o.b),
            Line(y_off + 0.5 * W_u - h_i.a, -h_i.b),
            Line(y_off + 0.5 * W_u + h_i.a, h_i.b),
            Line(y_off + W_u - h_o.a, -h_o.b),
            boundaries[u + 1],
        ))
    return out


def feasible_bounds(fixed: PkwFixed) -> dict[str, tuple[float, float]]:
    """Inclusive feasible intervals for the sampled variables.

    The W_i_u / W_i_d upper bound is the loosest one (at minimum T_s); the
    T_s-coupled bound is enforced per sample by :func:`validate`.
    """
    P = fixed.P
    t_lo = T_S_MIN_FACTOR * P
    w_lo = W_KEY_MARGIN_FACTOR * P
    w_hi = fixed.W_u - 2.0 * t_lo - w_lo
    return {
        "B_b": (B_B_MIN_FACTOR * P, B_B_MAX_FACTOR * P),
        "R_B_i": (R_B_I_MIN, R_B_I_MAX),
        "T_s": (t_lo, T_S_MAX_FACTOR * P),
        "W_i_u": (w_lo, w_hi),
        "W_i_d": (w_lo, w_hi),
    }


def validate(fixed: PkwFixed, sample: PkwSample) -> ValidationReport:
    """Check every feasibility constraint and report all violations."""
    P = fixed.P
    W_u = fixed.W_u
    violations: list[Violation] = []

    def check(ok: bool, constraint: str, actual: float, bound: float):
        if not ok:
            violations.append(Violation(constraint, actual, bound))

    b_lo, b_hi = B_B_MIN_FACTOR * P, B_B_MAX_FACTOR * P
    check(sample.B_b >= b_lo, "B_b >= 0.33 P", sample.B_b, b_lo)
    check(sample.B_b <= b_hi, "B_b <= 1.67 P", sample.B_b, b_hi)
    check(sample.R_B_i >= R_B_I_MIN, "R_B_i >= 0.25", sample.R_B_i, R_B_I_MIN)
    check(sample.R_B_i <= R_B_I_MAX, "R_B_i <= 1", sample.R_B_i, R_B_I_MAX)
    t_lo, t_hi = T_S_MIN_FACTOR * P, T_S_MAX_FACTOR * P
    check(sample.T_s >= t_lo, "T_s >= 0.015 P", sample.T_s, t_lo)
    check(sample.T_s <= t_hi, "T_s <= 0.18 P", sample.T_s, t_hi)
    w_lo = W_KEY_MARGIN_FACTOR * P
    w_hi = W_u - 2.0 * sample.T_s - w_lo
    check(sample.W_i_u >= w_lo, "W_i_u >= 0.03 P", sample.W_i_u, w_lo)
    check(sample.W_i_u <= w_hi, "W_i_u <= W_u - 2 T_s - 0.03 P", sample.W_i_u, w_hi)
    check(sample.W_i_d >= w_lo, "W_i_d >= 0.03 P", sample.W_i_d, w_lo)
    check(sample.W_i_d <= w_hi, "W_i_d <= W_u - 2 T_s - 0.03 P", sample.W_i_d, w_hi)
    check(sample.W_i_u >= sample.W_i_d, "W_i_u >= W_i_d", sample.W_i_u, sample.W_i_d)

    # Derived outlet widths, guarded so an underivable sample still reports.
    try:
        derived = derive(fixed, sample)
    except (DegenerateGeometry, NonPositiveOutletWidth, ValueError) as exc:
        if isinstance(exc, DegenerateGeometry):
            B = sample.B_b * (1.0 + sample.R_B_i + sample.R_B_o)
            violations.append(Violation("B > T_s", B, sample.T_s))
        elif isinstance(exc, NonPositiveOutletWidth):
            violations.append(Violation("W_o_u > 0 and W_o_d > 0", 0.0, 0.0))
        # W_i_u < W_i_d is already recorded above.
    else:
        check(derived.W_o_u > 0.0, "W_o_u > 0", derived.W_o_u, 0.0)
        check(derived.W_o_d > 0.0, "W_o_d > 0", derived.W_o_d, 0.0)
        # The crest walls inherit the sidewall taper, so each is narrowest at
        # its outer face: the downstream wall at x = B, each upstream half at
        # x = 0. Both are measured on the plan edges the mesher builds, so
        # this gate and build_regions' DegenerateRegion check agree to the
        # last bit.
        B = derived.B
        edges = unit_plan_edges(derived, fixed)
        down = min(f_iu.value(B) - f_il.value(B) for _, _, f_il, f_iu, _, _ in edges)
        up = min(min(f_ol.value(0.0) - lo.value(0.0), hi.value(0.0) - f_ou.value(0.0))
                 for lo, f_ol, _, _, f_ou, hi in edges)
        check(down > _MIN_WIDTH, "W_i_d - 2 delta_T_s > 1e-9 m", down, _MIN_WIDTH)
        check(up > _MIN_WIDTH, "W_o_u / 2 - delta_T_s > 1e-9 m", up, _MIN_WIDTH)

    return ValidationReport(feasible=not violations, violations=tuple(violations))


def feature_vector(derived: PkwDerived, Q: float) -> np.ndarray:
    """Ordered surrogate features (Q, B_i, B_o, B, alpha_deg, T_s2, T_s3, W_o_u, W_o_d).

    Q is in m^3/s and alpha is reported in degrees.
    """
    return np.array([
        Q, derived.B_i, derived.B_o, derived.B, derived.alpha_deg,
        derived.T_s2, derived.T_s3, derived.W_o_u, derived.W_o_d,
    ])


# Parametric record I/O. One row per geometry, lengths in meters printed to
# nine significant digits, alpha in degrees.

_PARAM_COLUMNS = [
    "geometry_id", "W", "P", "N_u",
    "B_b", "R_B_i", "R_B_o", "T_s", "W_i_u", "W_i_d",
    "W_u", "B_i", "B_o", "B", "alpha_deg", "delta_T_s", "T_s2", "T_s3",
    "W_o_u", "W_o_d", "L_u", "L",
]


def write_params(path, records) -> None:
    """Write parametric records as delimited text.

    records: iterable of (geometry_id, PkwFixed, PkwSample, PkwDerived).
    """
    with _atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_PARAM_COLUMNS)
        for geometry_id, fixed, sample, derived in records:
            row = [geometry_id, f"{fixed.W:.9g}", f"{fixed.P:.9g}", fixed.N_u]
            row += [f"{v:.9g}" for v in (
                sample.B_b, sample.R_B_i, sample.R_B_o, sample.T_s,
                sample.W_i_u, sample.W_i_d)]
            row += [f"{v:.9g}" for v in (
                derived.W_u, derived.B_i, derived.B_o, derived.B, derived.alpha_deg,
                derived.delta_T_s, derived.T_s2, derived.T_s3,
                derived.W_o_u, derived.W_o_d, derived.L_u, derived.L)]
            writer.writerow(row)

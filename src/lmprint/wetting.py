"""Wetting equilibrium and stable printed-line width.

Young's balance of the three surface tensions fixes the equilibrium
contact angle; the angle, the delivered flux and the head speed fix the
width the deposited liquid-metal line relaxes to. Force-dependent contact
angles come from per-substrate lookup tables because pressing the drop
flattens it onto the surface.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import bisect
import math
import warnings

from .core import Record, SubstrateProperties
from .errors import ConfigError, NoEquilibriumError, WettingDomainError
from .flux import cross_section_area


class SurfaceTensionTriple(Record):
    """Substrate/air, substrate/liquid-metal and liquid-metal/air tensions (N/m)."""

    gamma_sub_air: float
    gamma_sub_lm: float
    gamma_lm_air: float

    def __post_init__(self):
        if not (self.gamma_lm_air > 0):
            raise ConfigError("gamma_lm_air must be > 0")


class LineEstimate(Record):
    """Predicted stable line: width (m), cross-section area (m^2), angle (rad)."""

    width: float
    cross_section_area: float
    contact_angle: float


class BeadWettingPair(Record):
    """Liquid-metal tension on the substrate vs on the roller-bead (N/m)."""

    gamma_sub_lm: float
    gamma_bead_lm: float

    def __post_init__(self):
        if self.gamma_sub_lm < 0 or self.gamma_bead_lm < 0:
            raise ConfigError("surface tensions must be >= 0")


def young_contact_angle(t: SurfaceTensionTriple) -> float:
    """Equilibrium contact angle (rad) from the Young balance.

    theta = arccos((gamma_sub_air - gamma_sub_lm) / gamma_lm_air). An
    argument outside [-1, 1] means no equilibrium exists (complete wetting
    or dewetting) and raises NoEquilibriumError.
    """
    arg = (t.gamma_sub_air - t.gamma_sub_lm) / t.gamma_lm_air
    if not (-1.0 <= arg <= 1.0):
        raise NoEquilibriumError(
            f"(gamma_sub_air - gamma_sub_lm)/gamma_lm_air = {arg:g} outside [-1, 1]")
    return math.acos(arg)


def stable_line_width(theta: float, flux: float, print_speed: float) -> LineEstimate:
    """Width of the stable deposited line.

    L = 2 sin(theta) / sqrt(theta - sin(theta) cos(theta)) * sqrt(Q / Vs)
    with theta in radians, Q in m^3/s, Vs in m/s. Valid for theta in
    (0, pi]; theta = pi gives L = 0 by continuity (sin(pi) = 0), theta at
    or below 0 or above pi has no geometric meaning and raises, as does L
    past every float (a speed too small).
    """
    if not (0.0 < theta <= math.pi):
        raise WettingDomainError(f"contact angle {theta:g} rad outside (0, pi]")
    if not 0.0 <= flux < math.inf:
        raise WettingDomainError("flux must be finite and >= 0")
    area = cross_section_area(flux, print_speed)
    denom = theta - math.sin(theta) * math.cos(theta)
    width = 2.0 * math.sin(theta) / math.sqrt(denom) * math.sqrt(area)
    if not width < math.inf:
        raise WettingDomainError(f"line width not finite at {print_speed:g} m/s")
    return LineEstimate(width=width, cross_section_area=area, contact_angle=theta)


def force_clamped(substrate: SubstrateProperties,
                  applied_force: float) -> bool:
    """Whether the applied force (N) lies outside the substrate's
    contact-angle table, so that angle_at_force clamps it to an end."""
    table = substrate.angle_table
    return bool(table) and (applied_force < table[0][0]
                            or applied_force > table[-1][0])


def angle_at_force(substrate: SubstrateProperties, applied_force: float) -> float:
    """Contact angle (deg) at the applied force (N), interpolated linearly.

    Forces outside the table are clamped to the end values with a warning
    (force_clamped); the tables only cover the measured force span.
    """
    table = substrate.angle_table
    if not table:
        raise ConfigError(f"{substrate.name}: empty contact-angle table")
    force = float(applied_force)
    forces = [f for f, _ in table]
    angles = [a for _, a in table]
    if force_clamped(substrate, force):
        warnings.warn(
            f"{substrate.name}: force {force:g} N outside table span "
            f"[{forces[0]:g}, {forces[-1]:g}] N; clamping",
            stacklevel=2)
    # np.interp's rule and arithmetic, so the result keeps its bits: a
    # one-entry table answers its angle, NaN answers NaN, the ends clamp
    # and a knot answers its own angle.
    if len(table) == 1:
        return angles[0]
    if math.isnan(force):
        return force
    j = bisect.bisect_right(forces, force) - 1
    if j < 0:
        return angles[0]
    if j == len(table) - 1 or forces[j] == force:
        return angles[j]
    slope = (angles[j + 1] - angles[j]) / (forces[j + 1] - forces[j])
    return slope * (force - forces[j]) + angles[j]


def wettability_ranking(substrates: Iterable[SubstrateProperties],
                        applied_force: float) -> list[SubstrateProperties]:
    """Substrates ordered best-wetting first (ascending contact angle).

    Ties break lexicographically by name.
    """
    subs = list(substrates)
    if not subs:
        raise ConfigError("no substrates to rank")
    return sorted(subs, key=lambda s: (angle_at_force(s, applied_force), s.name))


def deposition_feasible(pair: BeadWettingPair) -> bool:
    """True when the ink prefers the substrate over the bead (strictly)."""
    return pair.gamma_sub_lm < pair.gamma_bead_lm


def line_width_profile(thetas_deg: Sequence[float], flux: float,
                       print_speed: float) -> list[tuple[float, float]]:
    """(theta_deg, width_m) pairs across a sweep of contact angles."""
    return [(float(t), stable_line_width(math.radians(t), flux, print_speed).width)
            for t in thetas_deg]

"""Contact of the rigid roller-bead with the elastic substrate.

Hertz-type normal contact (indentation depth, contact radius, elliptic
pressure distribution) plus the rolling-creep model that decides whether
the bead rolls cleanly or slides. A sliding bead stops pumping ink, so the
creep magnitude feeds the printing-failure checks downstream.
"""

from __future__ import annotations


import math

from .core import BeadGeometry, Record, SubstrateProperties
from .errors import ConfigError, FullSlipError, OutOfContactError


class ContactLoad(Record):
    """External load on the bead.

    force in N. normal_angle (rad) is the tilt of the force away from the
    vertical axis; tangential_angle (rad) is the obliquity entering the
    creep formula. The two are kept independent.
    """

    force: float
    normal_angle: float = 0.0
    tangential_angle: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.force < math.inf:
            raise ConfigError("contact force must be finite and >= 0")
        if not math.isfinite(self.tangential_angle):
            raise ConfigError("tangential_angle must be finite")
        if not (0.0 <= self.normal_angle < math.pi / 2):
            raise ConfigError("normal_angle must be in [0, pi/2)")


class ContactSolution(Record):
    """Indentation depth h, contact radius a = sqrt(R h), area pi a^2 (SI)."""

    indentation_depth: float
    contact_radius: float
    contact_area: float


class SlidingState(Record):
    """Creep of the rolling bead.

    creep is the signed ratio s = 1 - R*omega/V; negative s means the bead
    surface speed lags the head translation. sr and fr are the dimensionless
    pair with sr = 1 - (1 - fr)^(1/3); fr = tan(tangential_angle)/mu.
    """

    creep: float
    sr: float
    fr: float


def indentation(load: ContactLoad, bead: BeadGeometry,
                substrate: SubstrateProperties, *, literal_s4: bool = False) -> ContactSolution:
    """Solve the normal contact for a force pressed at normal_angle.

    h = (3 (1 - sigma^2) F cos(phi) / (4 E sqrt(R)))^(2/3), a = sqrt(R h).
    With literal_s4=True the transcribed variant with E and (1 - sigma^2)
    swapped is evaluated instead; it is dimensionally inconsistent and kept
    only for traceability.
    """
    E = substrate.youngs_modulus
    sigma = substrate.poisson_ratio
    R = bead.bead_radius
    fn = load.force * math.cos(load.normal_angle)
    if fn == 0.0:
        return ContactSolution(0.0, 0.0, 0.0)
    if literal_s4:
        base = 3.0 * E * fn / (4.0 * (1.0 - sigma ** 2) * math.sqrt(R))
    else:
        base = 3.0 * (1.0 - sigma ** 2) * fn / (4.0 * E * math.sqrt(R))
    h = base ** (2.0 / 3.0)
    a = math.sqrt(R * h)
    return ContactSolution(indentation_depth=h, contact_radius=a,
                           contact_area=math.pi * a * a)


def contact_pressure(solution: ContactSolution, load: ContactLoad,
                     radial_position: float) -> float:
    """Normal pressure (Pa) at radius r inside the contact disc.

    P(r) = 3 F cos(phi) / (2 pi a^2) * sqrt(1 - r^2/a^2); zero at the edge,
    and the disc integral recovers the normal force component. Querying
    r > a raises OutOfContactError: pressure is zero out there, and the
    error distinguishes misuse from a legitimate edge evaluation.
    """
    a = solution.contact_radius
    r = radial_position
    if r < 0:
        raise OutOfContactError("radial position must be >= 0")
    if r > a:
        raise OutOfContactError(f"r={r:g} m outside contact radius a={a:g} m")
    if a == 0.0:
        return 0.0
    peak = 3.0 * load.force * math.cos(load.normal_angle) / (2.0 * math.pi * a * a)
    return peak * math.sqrt(max(0.0, 1.0 - (r / a) ** 2))


def sliding_ratio(load: ContactLoad, substrate: SubstrateProperties,
                  solution: ContactSolution, bead: BeadGeometry) -> SlidingState:
    """Creep of the rolling bead under an oblique load.

    |s| = (4 - 3 sigma)/(4 (1 - sigma)) * mu a / R * (1 - (1 - tan(theta)/mu)^(1/3)),
    reported with the negative sign convention (surface speed lags).
    Requires tan(tangential_angle) <= mu; beyond that the bead slides
    freely and FullSlipError is raised (a printing-failure condition).
    """
    mu = substrate.friction_coefficient
    sigma = substrate.poisson_ratio
    t = math.tan(load.tangential_angle)
    if t < 0:
        raise ConfigError("tangential_angle must give tan >= 0")
    fr = t / mu
    if fr > 1.0:
        raise FullSlipError(
            f"tan(tangential_angle)={t:g} exceeds friction coefficient {mu:g}: full slip")
    sr = 1.0 - (1.0 - fr) ** (1.0 / 3.0)
    magnitude = ((4.0 - 3.0 * sigma) / (4.0 * (1.0 - sigma))
                 * mu * solution.contact_radius / bead.bead_radius * sr)
    return SlidingState(creep=-magnitude, sr=sr, fr=fr)


def sr_fr_curve(fr_samples) -> list[tuple[float, float]]:
    """Evaluate sr = 1 - (1 - fr)^(1/3) over fr samples in [0, 1]."""
    out = []
    for fr in fr_samples:
        fr = float(fr)
        if not (0.0 <= fr <= 1.0):
            raise ConfigError(f"fr={fr:g} outside [0, 1]")
        out.append((fr, 1.0 - (1.0 - fr) ** (1.0 / 3.0)))
    return out


def static_slip_check(load: ContactLoad, substrate: SubstrateProperties) -> str:
    """'no-slip' while the static friction cone holds (tan(phi) <= mu)."""
    if math.tan(load.normal_angle) <= substrate.friction_coefficient:
        return "no-slip"
    return "slip"

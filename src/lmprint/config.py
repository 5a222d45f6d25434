"""JSON run configuration -> Environment.

One table maps each section to its record and each JSON key to a record
field; the field's annotation says what a value must be, and a field with
no default (in the record or here) is a key an inline section needs.
Absent and null sections keep the shipped GaIn24.5 / PVC-film defaults;
unknown keys are rejected so a typo cannot silently fall back to one.
"""

from __future__ import annotations

import dataclasses
import json

from .core import (DEFAULT_BEAD, GAIN245, SUBSTRATE_PRESETS, BeadGeometry,
                   InkProperties, MachineLimits, PressureCalibration,
                   SpeedCalibration, SubstrateProperties)
from .environment import CornerPolicy, Environment
from .errors import ConfigError
from .flux import FluxModelParams

INK_PRESETS = {"gain24.5": GAIN245}
_PRESETS = {"ink": INK_PRESETS, "substrate": SUBSTRATE_PRESETS}


def _number(value) -> float:
    if type(value) not in (int, float):  # bool is not a number here
        raise TypeError
    return float(value)  # OverflowError: an int no float can hold


def _exact(kind):
    def read(value):
        if type(value) is not kind:
            raise TypeError
        return value
    return read


def _pairs(value) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, list) or any(
            not isinstance(row, list) or len(row) != 2 for row in value):
        raise TypeError
    return tuple((_number(a), _number(b)) for a, b in value)


# field annotation -> (reader, what a JSON value must be to pass it)
_READERS = {
    "float": (_number, "a number"),
    "float | None": (lambda v: v if v is None else _number(v),
                     "a number or null"),
    "int": (_exact(int), "an integer"),
    "str": (_exact(str), "a string"),
    "tuple[tuple[float, float], ...]": (_pairs, "a list of [number, number]"),
}


def _schema(field, record, keys=None, **supplied):
    """The Environment field a section fills (None: its own fields), its
    record, JSON key -> (field, reader, what), the required keys and the
    supplied defaults. An annotation with no reader fails at import."""
    fields = {f.name: f for f in dataclasses.fields(record)}
    keys = keys or {name: name for name in fields}
    readers = {key: (name, *_READERS[fields[name].type])
               for key, name in keys.items()}
    required = [key for key, name in keys.items() if name not in supplied
                and fields[name].default is dataclasses.MISSING]
    return field, record, readers, required, supplied


_SECTIONS = {
    "ink": _schema("ink", InkProperties, name="custom", melting_point=15.5),
    "substrate": _schema("substrate", SubstrateProperties, name="custom"),
    "bead": _schema("bead", BeadGeometry, {
        "bead_radius_m": "bead_radius", "gap_width_m": "gap_width",
        "channel_width_m": "channel_width_eff",
        "channel_length_m": "channel_length_eff"},
        bead_radius=DEFAULT_BEAD.bead_radius,
        gap_width=DEFAULT_BEAD.gap_width),
    "limits": _schema("limits", MachineLimits, {
        "max_speed_mm_s": "max_speed",
        "preferred_max_speed_mm_s": "preferred_max_speed",
        "max_pressure_g": "max_pressure"}),
    "speed_calibration": _schema("speed_calibration", SpeedCalibration),
    "pressure_calibration": _schema("pressure_calibration", PressureCalibration),
    "flux": _schema("flux_params", FluxModelParams),
    "policy": _schema("policy", CornerPolicy, {
        "threshold_angle_deg": "threshold_angle", "strategy": "strategy",
        "slowdown_factor": "slowdown_factor",
        "fillet_radius_mm": "fillet_radius_mm"}),
    "simulation": _schema(None, Environment, {
        "pressure_drop_pa": "pressure_drop",
        "tangential_angle_rad": "tangential_angle", "dwell_s": "dwell_s",
        "s_max": "s_max", "chord_tolerance_mm": "chord_tolerance_mm",
        "max_raster_pixels": "max_raster_pixels",
        "resistivity_ohm_m": "resistivity_ohm_m"}),
}


def _object(section: str, spec, allowed):
    if not isinstance(spec, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    unknown = set(spec) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")


def _values(section: str, spec, readers, required, supplied) -> dict:
    _object(section, spec, readers)
    missing = [key for key in required if key not in spec]
    if missing:
        raise ConfigError(f"{section} needs {missing}")
    values = dict(supplied)
    for key, value in spec.items():
        name, read, what = readers[key]
        try:
            values[name] = read(value)
        except (TypeError, OverflowError):
            raise ConfigError(f"{section}.{key} must be {what}") from None
    return values


def load_config(data: bytes | str | None) -> Environment:
    """Build an Environment from config JSON (None -> all defaults)."""
    if data is None:
        return Environment()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _object("config", doc, _SECTIONS)
    env = {}
    for section, (field, record, *schema) in _SECTIONS.items():
        spec = doc.get(section)
        if spec is None:
            continue
        if isinstance(spec, str) and section in _PRESETS:
            presets = _PRESETS[section]
            if spec.lower() not in presets:
                raise ConfigError(f"unknown {section} preset {spec!r}; "
                                  f"known: {sorted(presets)}")
            env[field] = presets[spec.lower()]
        elif field is None:
            env.update(_values(section, spec, *schema))
        else:
            env[field] = record(**_values(section, spec, *schema))
    return Environment(**env)


def load_config_file(path) -> Environment:
    with open(path, "rb") as fh:
        return load_config(fh.read())

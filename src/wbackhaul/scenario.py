"""Domain types, calibration defaults, and JSON scenario loading.

All quantities are SI: Hz, meters, Watts, Joules, seconds, bit/s.
Every type is a frozen dataclass and safe to share between threads.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Union

SECONDS_PER_YEAR = 3.1536e7  # 365 days

_FLOAT_MAX = sys.float_info.max

# S1 feeder protocol overhead and X2 handover overhead, as fractions of
# the user-plane cell throughput.
DEFAULT_OVERHEAD_S1 = 0.10
DEFAULT_OVERHEAD_X2 = 0.04

DEFAULT_ALPHA = 3.2  # urban path loss exponent
DEFAULT_BAND_HZ = 5.8e9  # the carrier of the calibration table's anchor


class ConfigError(ValueError):
    """Base class for scenario configuration failures."""


class ParseError(ConfigError):
    """The config text is not syntactically valid JSON."""


class ValidationError(ConfigError):
    """A structurally valid config violates a field invariant."""


# Field rules, (types, low, high, message): a value passes when it is an
# instance of types but not a bool, and low <= value <= high.  This number
# test never raises: the chained comparison is False for NaN and for an
# int too large for a float, so every accepted value fits a float (a count
# is multiplied into float totals).  An open bound is written as the
# nearest float inside it, which is exact for ints and floats alike.
_ABOVE_0 = math.nextafter(0.0, 1.0)
_BELOW_1 = math.nextafter(1.0, 0.0)
_POSITIVE = ((int, float), _ABOVE_0, _FLOAT_MAX, "must be a number > 0")
_NON_NEGATIVE = ((int, float), 0, _FLOAT_MAX, "must be a number >= 0")
_OPEN_UNIT = ((int, float), _ABOVE_0, _BELOW_1, "must be a number in (0, 1)")
_UNIT = ((int, float), 0, _BELOW_1, "must be a number in [0, 1)")
_COUNT = (int, 0, _FLOAT_MAX, "must be an integer >= 0")
_COUNT_1 = (int, 1, _FLOAT_MAX, "must be an integer >= 1")


def _each(rule, *names) -> tuple:
    """(field, message name, rule) rows for fields that messages name as is."""
    return tuple((name, name, rule) for name in names)


class _Checked:
    """Base of the input records: one check of each field against the
    (field, message name, rule) rows of the class's _rules."""

    _rules = ()

    def __post_init__(self):
        for name, label, (types, low, high, message) in self._rules:
            v = getattr(self, name)
            if not (isinstance(v, types) and not isinstance(v, bool) and low <= v <= high):
                raise ValidationError(f"{label}: {message}")


@dataclass(frozen=True)
class PowerCurve(_Checked):
    """Linear operating-power model: P_op = slope_a * P_tx + offset_b_w."""

    slope_a: float        # dimensionless
    offset_b_w: float     # Watt, draw at zero transmit power

    _rules = _each(_POSITIVE, "slope_a", "offset_b_w")


@dataclass(frozen=True)
class TxAnchor(_Checked):
    """Reference point that pins the transmit-power scaling law.

    Transmit power scales as power_w * (r / radius_m)^alpha
    * (f / carrier_hz)^freq_exponent, so a base station whose coverage
    radius and carrier equal the anchor's transmits exactly power_w.
    """

    power_w: float = 10.0
    radius_m: float = 500.0
    carrier_hz: float = 5.8e9
    freq_exponent: float = 2.0

    _rules = (_each(_POSITIVE, "power_w", "radius_m", "carrier_hz")
              + _each(_NON_NEGATIVE, "freq_exponent"))


# Default anchor: reproduces the published calibration table
# (10 W at 500 m on the 5.8 GHz band, carrier-frequency exponent 2).
DEFAULT_TX_ANCHOR = TxAnchor()

# Alternative normalization sometimes used for macro transmit power:
# 40 W at 1 km, no frequency dependence.  Selectable, not the default,
# because it does not reproduce the calibration table.
ANCHOR_40W_1KM = TxAnchor(power_w=40.0, radius_m=1000.0,
                          carrier_hz=5.8e9, freq_exponent=0.0)


@dataclass(frozen=True)
class EmbodiedAbsolute(_Checked):
    """Embodied energy given directly as initial + maintenance Joules."""

    init_j: float
    maint_j: float

    _rules = _each(_NON_NEGATIVE, "init_j", "maint_j")


@dataclass(frozen=True)
class EmbodiedFraction(_Checked):
    """Embodied energy specified as a fraction of total lifetime energy.

    fraction = E_em / (E_em + E_op), so E_em = E_op * f / (1 - f).
    """

    fraction: float

    _rules = _each(_OPEN_UNIT, "fraction")


EmbodiedRule = Union[EmbodiedAbsolute, EmbodiedFraction]


@dataclass(frozen=True)
class FixedSE(_Checked):
    """Constant average spectrum efficiency, bit/s/Hz."""

    bit_per_s_per_hz: float

    _rules = _each(_NON_NEGATIVE, "bit_per_s_per_hz")


@dataclass(frozen=True)
class ShannonEdgeSE(_Checked):
    """Cell-edge Shannon capacity model, calibrated at a reference radius.

    The cell's spectrum efficiency equals calibration_se when its radius
    equals ref_radius_m, for every path loss exponent; see link_model.
    """

    calibration_se: float        # bit/s/Hz at the reference radius
    ref_radius_m: float = 50.0

    _rules = _each(_POSITIVE, "calibration_se", "ref_radius_m")


SpectrumEffSource = Union[FixedSE, ShannonEdgeSE]


@dataclass(frozen=True)
class CellParams(_Checked):
    """Per-class (macro or small) base station parameters."""

    bandwidth_hz: float
    spectrum_eff: SpectrumEffSource
    radius_m: float
    power_curve: PowerCurve
    lifetime_s: float
    embodied: EmbodiedRule

    _rules = _each(_POSITIVE, "bandwidth_hz", "radius_m", "lifetime_s")


@dataclass(frozen=True)
class Central(_Checked):
    """All small cells backhaul into one macro base station."""

    n_small: int

    _rules = _each(_COUNT, "n_small")


@dataclass(frozen=True)
class Distribution(_Checked):
    """A cooperative cluster of small cells relays toward a gateway cell."""

    k_cluster: int

    _rules = _each(_COUNT_1, "k_cluster")


Architecture = Union[Central, Distribution]


def _finite_total(total: float, arch: Architecture, what: str) -> float:
    """A scenario total, or a ValidationError naming the station count if it overflowed.

    Every per-station term is non-negative, so any overflow on the way
    shows up as an inf or nan total.
    """
    if math.isfinite(total):
        return total
    name = "n_small" if isinstance(arch, Central) else "k_cluster"
    raise ValidationError(f"architecture.{name}: {what} overflows a float")


# Default per-class parameters from the published calibration table.  The
# table's constants are band-independent; the band only enters via
# transmit-power scaling (see TxAnchor).
_TABLE1 = {
    "macro": CellParams(
        bandwidth_hz=1e8,
        spectrum_eff=FixedSE(5.0),
        radius_m=500.0,
        power_curve=PowerCurve(slope_a=21.45, offset_b_w=354.44),
        lifetime_s=10 * SECONDS_PER_YEAR,
        embodied=EmbodiedAbsolute(init_j=75e9, maint_j=10e9),
    ),
    "small": CellParams(
        bandwidth_hz=1e8,
        spectrum_eff=FixedSE(5.0),
        radius_m=50.0,
        power_curve=PowerCurve(slope_a=7.84, offset_b_w=71.50),
        lifetime_s=5 * SECONDS_PER_YEAR,
        embodied=EmbodiedFraction(fraction=0.20),
    ),
}


def default_table1(cell_class: str) -> CellParams:
    """Default parameters of the "macro" or "small" cell class, a shared
    frozen record."""
    cell = _TABLE1.get(cell_class) if isinstance(cell_class, str) else None
    if cell is None:
        raise ValidationError(f"cell_class: must be 'macro' or 'small', got {cell_class!r}")
    return cell


@dataclass(frozen=True)
class ScenarioConfig(_Checked):
    """Complete description of one backhaul evaluation."""

    architecture: Architecture
    band_hz: float = DEFAULT_BAND_HZ       # carrier of the backhaul links
    macro: CellParams | None = None        # required iff architecture is Central
    small: CellParams = _TABLE1["small"]
    path_loss_alpha: float = DEFAULT_ALPHA
    tx_anchor: TxAnchor = DEFAULT_TX_ANCHOR
    overhead_s1: float = DEFAULT_OVERHEAD_S1
    overhead_x2: float = DEFAULT_OVERHEAD_X2

    # messages name the JSON document's keys
    _rules = (("band_hz", "band_hz", _POSITIVE),
              ("path_loss_alpha", "alpha", _POSITIVE),
              ("overhead_s1", "overheads.s1", _UNIT),
              ("overhead_x2", "overheads.x2", _UNIT))

    def __post_init__(self):
        if not isinstance(self.architecture, (Central, Distribution)):
            raise ValidationError("architecture: must be Central or Distribution")
        super().__post_init__()
        if isinstance(self.architecture, Central):
            if self.macro is None:
                object.__setattr__(self, "macro", _TABLE1["macro"])
        elif self.macro is not None:
            raise ValidationError(
                "macro: not allowed for the distribution architecture")


@dataclass(frozen=True)
class ThroughputBreakdown:
    """Backhaul throughput split by direction and cell class, bit/s.

    small_* and macro_* are per-cell values; total_* aggregates over the
    scenario's cell counts.  total_bps is total_up_bps + total_down_bps.
    """

    small_up_bps: float
    small_down_bps: float
    macro_up_bps: float
    macro_down_bps: float
    total_up_bps: float
    total_down_bps: float
    total_bps: float


@dataclass(frozen=True)
class EnergyBreakdown:
    """Lifetime energy split by cell class, Joule.

    per_* fields are for one base station of that class; system_total_j
    composes them with the scenario's cell counts.
    """

    per_macro_operating_j: float
    per_macro_embodied_j: float
    per_small_operating_j: float
    per_small_embodied_j: float
    system_total_j: float


# ---------------------------------------------------------------------------
# JSON loading / serialization
#
# Document layout (all keys optional except architecture; unknown keys are
# rejected at every level):
#
#   {"architecture": {"type": "central", "n_small": 100},
#    "band_hz": 5.8e9,
#    "macro": { ...cell... },        # central only
#    "small": { ...cell... },
#    "alpha": 3.2,
#    "tx_anchor": {"power_w": 10, "radius_m": 500,
#                  "carrier_hz": 5.8e9, "freq_exponent": 2},
#    "overheads": {"s1": 0.10, "x2": 0.04}}
#
#   cell: {"bandwidth_hz": 1e8,
#          "spectrum_eff": {"type": "fixed", "bit_per_s_per_hz": 5}
#                        | {"type": "shannon_edge", "calibration_se": 5,
#                           "ref_radius_m": 50},
#          "radius_m": 50,
#          "power_curve": {"slope_a": 7.84, "offset_b_w": 71.5},
#          "lifetime_s": 1.5768e8,
#          "embodied": {"type": "absolute", "init_j": 75e9, "maint_j": 10e9}
#                    | {"type": "fraction_of_total", "fraction": 0.2}}
# ---------------------------------------------------------------------------

# Tagged unions: the "type" value of a JSON object -> its record class.
_ARCHITECTURES = {"central": Central, "distribution": Distribution}
_SPECTRUM_EFFS = {"fixed": FixedSE, "shannon_edge": ShannonEdgeSE}
_EMBODIED = {"absolute": EmbodiedAbsolute, "fraction_of_total": EmbodiedFraction}
_TAGS = {cls: tag for union in (_ARCHITECTURES, _SPECTRUM_EFFS, _EMBODIED)
         for tag, cls in union.items()}

# Record fields whose JSON value is itself a record or a tagged union.
_NESTED = {"spectrum_eff": _SPECTRUM_EFFS, "power_curve": PowerCurve,
           "embodied": _EMBODIED}


def _layout(cls) -> tuple:
    """(allowed keys, ((key, nested, default), ...), nested keys) of a JSON record.

    A record's JSON keys are its dataclass fields, in declaration order,
    plus "type" for a tagged union member; nested is the field's _NESTED
    entry or None, and default is the dataclass default or MISSING.
    """
    table = tuple((f.name, _NESTED.get(f.name), f.default) for f in fields(cls))
    keys = {name for name, _, _ in table} | ({"type"} if cls in _TAGS else set())
    return frozenset(keys), table, tuple(name for name in _NESTED if name in keys)


_RECORDS = {cls: _layout(cls) for cls in (PowerCurve, TxAnchor, CellParams, *_TAGS)}


def _check_keys(obj: dict, allowed, where: str) -> None:
    if not obj.keys() <= allowed:
        raise ValidationError(f"{where}: unknown key(s) {sorted(obj.keys() - allowed)}")


def _as_dict(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: must be an object")
    return obj


def _read(kind, obj, where: str, defaults=None):
    """Build a record (kind is its class) or a tagged union member (kind is a
    {type: class} map) from a JSON object.

    Keys the object omits come from defaults, else from the dataclass
    defaults; a key with neither is an error.  The record checks its own
    values; its error gets the object's JSON path as a prefix.
    """
    d = _as_dict(obj, where)
    cls = kind
    if isinstance(kind, dict):
        tag = d.get("type")
        cls = kind.get(tag) if isinstance(tag, str) else None
        if cls is None:
            raise ValidationError(
                f"{where}.type: must be {' or '.join(repr(t) for t in kind)}")
    allowed, table, _ = _RECORDS[cls]
    _check_keys(d, allowed, where)
    values = []
    for key, nested, default in table:
        v = d.get(key, MISSING)
        if v is MISSING:
            v = default if defaults is None else getattr(defaults, key)
            if v is MISSING:
                raise ValidationError(f"{where}.{key}: missing")
        elif nested is not None:
            v = _read(nested, v, f"{where}.{key}")
        values.append(v)
    try:
        return cls(*values)
    except ValidationError as e:
        raise ValidationError(f"{where}.{e}") from e


def _write(record) -> dict:
    """JSON object of a record: its "type" tag if it has one, then its fields."""
    cls = type(record)
    tag = _TAGS.get(cls)
    # a dataclass instance's __dict__ holds its fields in declaration order
    doc = vars(record).copy() if tag is None else {"type": tag, **vars(record)}
    for key in _RECORDS[cls][2]:
        doc[key] = _write(doc[key])
    return doc


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a parsed JSON document."""
    d = _as_dict(doc, "config")
    _check_keys(d, {"architecture", "band_hz", "macro", "small", "alpha",
                    "tx_anchor", "overheads"}, "config")
    if "architecture" not in d:
        raise ValidationError("architecture: missing")
    arch = _read(_ARCHITECTURES, d["architecture"], "architecture")

    # ScenarioConfig fills the default macro cell, or rejects one for the
    # distribution architecture
    macro = None
    if "macro" in d:
        macro = _read(CellParams, d["macro"], "macro", _TABLE1["macro"])

    small = _TABLE1["small"]
    if "small" in d:
        small = _read(CellParams, d["small"], "small", small)

    anchor = DEFAULT_TX_ANCHOR
    if "tx_anchor" in d:
        anchor = _read(TxAnchor, d["tx_anchor"], "tx_anchor")

    o = _as_dict(d.get("overheads", {}), "overheads")
    _check_keys(o, {"s1", "x2"}, "overheads")

    return ScenarioConfig(architecture=arch, band_hz=d.get("band_hz", DEFAULT_BAND_HZ),
                          macro=macro, small=small,
                          path_loss_alpha=d.get("alpha", DEFAULT_ALPHA), tx_anchor=anchor,
                          overhead_s1=o.get("s1", DEFAULT_OVERHEAD_S1),
                          overhead_x2=o.get("x2", DEFAULT_OVERHEAD_X2))


def load_scenario(source: str) -> ScenarioConfig:
    """Parse JSON config text into a validated ScenarioConfig.

    Omitted fields are filled with the calibration defaults.  Raises
    ParseError for malformed or too deeply nested JSON and ValidationError
    (naming the field's JSON path) for any invariant violation or unknown key.
    """
    try:
        doc = json.loads(source)
    except (json.JSONDecodeError, RecursionError) as e:
        # RecursionError: arrays or objects nested deeper than the parser's stack
        raise ParseError(f"invalid JSON: {e}") from e
    return scenario_from_dict(doc)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    doc = {
        "architecture": _write(cfg.architecture),
        "band_hz": cfg.band_hz,
        "small": _write(cfg.small),
        "alpha": cfg.path_loss_alpha,
        "tx_anchor": _write(cfg.tx_anchor),
        "overheads": {"s1": cfg.overhead_s1, "x2": cfg.overhead_x2},
    }
    if cfg.macro is not None:
        doc["macro"] = _write(cfg.macro)
    return doc


def serialize_scenario(cfg: ScenarioConfig) -> str:
    """Serialize to JSON text; load_scenario() round-trips it exactly."""
    return json.dumps(scenario_to_dict(cfg), indent=2)

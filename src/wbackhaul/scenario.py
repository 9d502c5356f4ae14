"""Domain types, calibration defaults, and JSON scenario loading.

All quantities are SI: Hz, meters, Watts, Joules, seconds, bit/s.
Every type is a frozen dataclass and safe to share between threads.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Union

SECONDS_PER_YEAR = 3.1536e7  # 365 days

_FLOAT_MAX = sys.float_info.max

# S1 feeder protocol overhead and X2 handover overhead, as fractions of
# the user-plane cell throughput.
DEFAULT_OVERHEAD_S1 = 0.10
DEFAULT_OVERHEAD_X2 = 0.04

DEFAULT_ALPHA = 3.2  # urban path loss exponent


class ConfigError(ValueError):
    """Base class for scenario configuration failures."""


class ParseError(ConfigError):
    """The config text is not syntactically valid JSON."""


class ValidationError(ConfigError):
    """A structurally valid config violates a field invariant."""


def _require(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise ValidationError(f"{field_name}: {message}")


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _require_count(value, field_name: str, low: int) -> None:
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= low):
        raise ValidationError(f"{field_name}: must be an integer >= {low}")
    # a count is multiplied into float totals, so it must convert to a float
    if value > _FLOAT_MAX:
        raise ValidationError(f"{field_name}: does not fit a float")


@dataclass(frozen=True)
class FrequencyBand:
    """Carrier frequency of the wireless backhaul links."""

    carrier_hz: float

    def __post_init__(self):
        _require(_is_num(self.carrier_hz) and self.carrier_hz > 0,
                 "carrier_hz", "must be a number > 0")


@dataclass(frozen=True)
class PowerCurve:
    """Linear operating-power model: P_op = slope_a * P_tx + offset_b_w."""

    slope_a: float        # dimensionless
    offset_b_w: float     # Watt, draw at zero transmit power

    def __post_init__(self):
        _require(_is_num(self.slope_a) and self.slope_a > 0,
                 "slope_a", "must be a number > 0")
        _require(_is_num(self.offset_b_w) and self.offset_b_w > 0,
                 "offset_b_w", "must be a number > 0")


@dataclass(frozen=True)
class TxAnchor:
    """Reference point that pins the transmit-power scaling law.

    Transmit power scales as power_w * (r / radius_m)^alpha
    * (f / carrier_hz)^freq_exponent, so a base station whose coverage
    radius and carrier equal the anchor's transmits exactly power_w.
    """

    power_w: float = 10.0
    radius_m: float = 500.0
    carrier_hz: float = 5.8e9
    freq_exponent: float = 2.0

    def __post_init__(self):
        for name in ("power_w", "radius_m", "carrier_hz"):
            _require(_is_num(getattr(self, name)) and getattr(self, name) > 0,
                     f"tx_anchor.{name}", "must be a number > 0")
        _require(_is_num(self.freq_exponent) and self.freq_exponent >= 0,
                 "tx_anchor.freq_exponent", "must be a number >= 0")


# Default anchor: reproduces the published calibration table
# (10 W at 500 m on the 5.8 GHz band, carrier-frequency exponent 2).
DEFAULT_TX_ANCHOR = TxAnchor()

# Alternative normalization sometimes used for macro transmit power:
# 40 W at 1 km, no frequency dependence.  Selectable, not the default,
# because it does not reproduce the calibration table.
ANCHOR_40W_1KM = TxAnchor(power_w=40.0, radius_m=1000.0,
                          carrier_hz=5.8e9, freq_exponent=0.0)


@dataclass(frozen=True)
class EmbodiedAbsolute:
    """Embodied energy given directly as initial + maintenance Joules."""

    init_j: float
    maint_j: float

    def __post_init__(self):
        _require(_is_num(self.init_j) and self.init_j >= 0,
                 "embodied.init_j", "must be a number >= 0")
        _require(_is_num(self.maint_j) and self.maint_j >= 0,
                 "embodied.maint_j", "must be a number >= 0")


@dataclass(frozen=True)
class EmbodiedFraction:
    """Embodied energy specified as a fraction of total lifetime energy.

    fraction = E_em / (E_em + E_op), so E_em = E_op * f / (1 - f).
    """

    fraction: float

    def __post_init__(self):
        _require(_is_num(self.fraction) and 0 < self.fraction < 1,
                 "embodied.fraction", "must be a number in (0, 1)")


EmbodiedRule = Union[EmbodiedAbsolute, EmbodiedFraction]


@dataclass(frozen=True)
class FixedSE:
    """Constant average spectrum efficiency, bit/s/Hz."""

    bit_per_s_per_hz: float

    def __post_init__(self):
        _require(_is_num(self.bit_per_s_per_hz) and self.bit_per_s_per_hz >= 0,
                 "spectrum_eff.bit_per_s_per_hz", "must be a number >= 0")


@dataclass(frozen=True)
class ShannonEdgeSE:
    """Cell-edge Shannon capacity model, calibrated at a reference radius.

    The cell's spectrum efficiency equals calibration_se when its radius
    equals ref_radius_m, for every path loss exponent; see link_model.
    """

    calibration_se: float        # bit/s/Hz at the reference radius
    ref_radius_m: float = 50.0

    def __post_init__(self):
        _require(_is_num(self.calibration_se) and self.calibration_se > 0,
                 "spectrum_eff.calibration_se", "must be a number > 0")
        _require(_is_num(self.ref_radius_m) and self.ref_radius_m > 0,
                 "spectrum_eff.ref_radius_m", "must be a number > 0")


SpectrumEffSource = Union[FixedSE, ShannonEdgeSE]


@dataclass(frozen=True)
class CellParams:
    """Per-class (macro or small) base station parameters."""

    bandwidth_hz: float
    spectrum_eff: SpectrumEffSource
    radius_m: float
    power_curve: PowerCurve
    lifetime_s: float
    embodied: EmbodiedRule

    def __post_init__(self):
        _require(_is_num(self.bandwidth_hz) and self.bandwidth_hz > 0,
                 "bandwidth_hz", "must be a number > 0")
        _require(_is_num(self.radius_m) and self.radius_m > 0,
                 "radius_m", "must be a number > 0")
        _require(_is_num(self.lifetime_s) and self.lifetime_s > 0,
                 "lifetime_s", "must be a number > 0")


@dataclass(frozen=True)
class Central:
    """All small cells backhaul into one macro base station."""

    n_small: int

    def __post_init__(self):
        _require_count(self.n_small, "architecture.n_small", 0)


@dataclass(frozen=True)
class Distribution:
    """A cooperative cluster of small cells relays toward a gateway cell."""

    k_cluster: int

    def __post_init__(self):
        _require_count(self.k_cluster, "architecture.k_cluster", 1)


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


def default_table1(cell_class: str) -> CellParams:
    """Default per-class parameters from the published calibration table.

    The table's constants are band-independent; the band only enters via
    transmit-power scaling (see TxAnchor).
    """
    if cell_class == "macro":
        return CellParams(
            bandwidth_hz=1e8,
            spectrum_eff=FixedSE(5.0),
            radius_m=500.0,
            power_curve=PowerCurve(slope_a=21.45, offset_b_w=354.44),
            lifetime_s=10 * SECONDS_PER_YEAR,
            embodied=EmbodiedAbsolute(init_j=75e9, maint_j=10e9),
        )
    if cell_class == "small":
        return CellParams(
            bandwidth_hz=1e8,
            spectrum_eff=FixedSE(5.0),
            radius_m=50.0,
            power_curve=PowerCurve(slope_a=7.84, offset_b_w=71.50),
            lifetime_s=5 * SECONDS_PER_YEAR,
            embodied=EmbodiedFraction(fraction=0.20),
        )
    raise ValidationError(f"cell_class: must be 'macro' or 'small', got {cell_class!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one backhaul evaluation."""

    architecture: Architecture
    band: FrequencyBand = field(default_factory=lambda: FrequencyBand(5.8e9))
    macro: CellParams | None = None        # required iff architecture is Central
    small: CellParams = field(
        default_factory=lambda: default_table1("small"))
    path_loss_alpha: float = DEFAULT_ALPHA
    tx_anchor: TxAnchor = DEFAULT_TX_ANCHOR
    overhead_s1: float = DEFAULT_OVERHEAD_S1
    overhead_x2: float = DEFAULT_OVERHEAD_X2

    def __post_init__(self):
        if not isinstance(self.architecture, (Central, Distribution)):
            raise ValidationError("architecture: must be Central or Distribution")
        _require(_is_num(self.path_loss_alpha) and self.path_loss_alpha > 0,
                 "alpha", "must be a number > 0")
        for name in ("overhead_s1", "overhead_x2"):
            v = getattr(self, name)
            _require(_is_num(v) and 0 <= v < 1, name, "must be a number in [0, 1)")
        if isinstance(self.architecture, Central):
            if self.macro is None:
                object.__setattr__(self, "macro", default_table1("macro"))
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
    """(allowed keys, ((key, kind, default), ...), nested keys) of a JSON record.

    A record's JSON keys are its dataclass fields, in declaration order,
    plus "type" for a tagged union member; kind is int, float or the
    field's _NESTED entry, and default is the dataclass default or MISSING.
    """
    table = tuple((f.name, _NESTED.get(f.name, int if f.type == "int" else float), f.default)
                  for f in fields(cls))
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


def _num(obj: dict, key: str, where: str, default):
    v = obj.get(key, default)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ValidationError(f"{where}.{key}: must be a number")
    return v


def _read(kind, obj, where: str, defaults=None):
    """Build a record (kind is its class) or a tagged union member (kind is a
    {type: class} map) from a JSON object.

    Keys the object omits come from defaults, else from the dataclass
    defaults; a key with neither is an error.
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
    for key, sub, default in table:
        v = d.get(key, MISSING)
        if sub is int:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValidationError(f"{where}.{key}: must be an integer")
        elif v is MISSING:
            v = default if defaults is None else getattr(defaults, key)
            if v is MISSING:
                raise ValidationError(f"{where}.{key}: missing")
        elif sub is float:
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ValidationError(f"{where}.{key}: must be a number")
        else:
            v = _read(sub, v, f"{where}.{key}")
        values.append(v)
    return cls(*values)


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
    band = FrequencyBand(_num(d, "band_hz", "config", 5.8e9))

    # ScenarioConfig fills the default macro cell, or rejects one for the
    # distribution architecture
    macro = None
    if "macro" in d:
        macro = _read(CellParams, d["macro"], "macro", default_table1("macro"))

    small = default_table1("small")
    if "small" in d:
        small = _read(CellParams, d["small"], "small", small)

    anchor = DEFAULT_TX_ANCHOR
    if "tx_anchor" in d:
        anchor = _read(TxAnchor, d["tx_anchor"], "tx_anchor")

    s1, x2 = DEFAULT_OVERHEAD_S1, DEFAULT_OVERHEAD_X2
    if "overheads" in d:
        o = _as_dict(d["overheads"], "overheads")
        _check_keys(o, {"s1", "x2"}, "overheads")
        s1 = _num(o, "s1", "overheads", DEFAULT_OVERHEAD_S1)
        x2 = _num(o, "x2", "overheads", DEFAULT_OVERHEAD_X2)

    return ScenarioConfig(architecture=arch, band=band, macro=macro, small=small,
                          path_loss_alpha=_num(d, "alpha", "config", DEFAULT_ALPHA),
                          tx_anchor=anchor, overhead_s1=s1, overhead_x2=x2)


def load_scenario(source: str) -> ScenarioConfig:
    """Parse JSON config text into a validated ScenarioConfig.

    Omitted fields are filled with the calibration defaults.  Raises
    ParseError for malformed JSON and ValidationError (naming the field)
    for any invariant violation or unknown key.
    """
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
    return scenario_from_dict(doc)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    doc = {
        "architecture": _write(cfg.architecture),
        "band_hz": cfg.band.carrier_hz,
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

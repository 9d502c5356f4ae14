"""Domain types, calibration defaults, and JSON scenario loading.

All quantities are SI: Hz, meters, Watts, Joules, seconds, bit/s.
Every type is a frozen dataclass and safe to share between threads.
An input record's fields are its JSON keys, and each field carries the
rule that checks its value, reads it from a document and writes it back.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Union

SECONDS_PER_YEAR = 3.1536e7  # 365 days

_FLOAT_MAX = sys.float_info.max


class ConfigError(ValueError):
    """Base class for scenario configuration failures."""


class ParseError(ConfigError):
    """The config text is not syntactically valid JSON."""


class ValidationError(ConfigError):
    """A structurally valid config violates a field invariant."""


# Number rules, (types, low, high, message): a value passes when it is an
# instance of types but not a bool, and low <= value <= high.  The chained
# comparison never raises: it is False for NaN and for an int too large
# for a float, so every accepted value fits a float (a count is multiplied
# into float totals).  An open bound is written as the nearest float
# inside it, which is exact for ints and floats alike.  topology checks
# its library arguments with the same test.
def _check_number(name: str, value, rule: tuple):
    """value, or a ValidationError naming name unless it passes the number rule."""
    types, low, high, message = rule
    if not (isinstance(value, types) and not isinstance(value, bool)
            and low <= value <= high):
        raise ValidationError(f"{name}: {message}")
    return value


_ABOVE_0 = math.nextafter(0.0, 1.0)
_BELOW_1 = math.nextafter(1.0, 0.0)
_POSITIVE = ((int, float), _ABOVE_0, _FLOAT_MAX, "must be a number > 0")
_NON_NEGATIVE = ((int, float), 0, _FLOAT_MAX, "must be a number >= 0")
_OPEN_UNIT = ((int, float), _ABOVE_0, _BELOW_1, "must be a number in (0, 1)")
_UNIT = ((int, float), 0, _BELOW_1, "must be a number in [0, 1)")
_COUNT = (int, 0, _FLOAT_MAX, "must be an integer >= 0")
_COUNT_1 = (int, 1, _FLOAT_MAX, "must be an integer >= 1")


def _check_positive(**args) -> None:
    """Raise a ValidationError naming the first of args that is not a number > 0."""
    for name, value in args.items():
        _check_number(name, value, _POSITIVE)


def _rule(rule, default=MISSING):
    """A record field with its rule: a number rule, a record class, or a
    {tag: class} tagged union, whose JSON object names its class by the tag
    in its "type" key.  A record field that defaults to None may also be None."""
    return field(default=default, metadata={"rule": rule})


def _record(cls):
    """The frozen dataclass of an input record, with the rule tables of its
    fields built once per class: every record built runs __post_init__ and
    every object of a document runs _read."""
    cls = dataclass(frozen=True)(cls)
    # _rules: {field: rule} in declaration order;
    # _fields: (field, record rule or None, default) for the reader;
    # _records: (field, types, message, {class: tag} or None);
    # _numbers: (field, number rule); _keys_with_type: a union member's JSON keys.
    cls._rules = {f.name: f.metadata["rule"] for f in fields(cls)}
    cls._keys_with_type = frozenset(cls._rules) | {"type"}
    read, records, numbers = [], [], []
    for f in fields(cls):
        name, rule, default = f.name, f.metadata["rule"], f.default
        if isinstance(rule, tuple):
            read.append((name, None, default))
            numbers.append((name, rule))
            continue
        read.append((name, rule, default))
        union = isinstance(rule, dict)
        types = tuple(rule.values()) if union else (rule,)
        message = f"{name}: must be {' or '.join(t.__name__ for t in types)}"
        if default is None:
            types, message = types + (type(None),), message + " or None"
        tags = {c: tag for tag, c in rule.items()} if union else None
        records.append((name, types, message, tags))
    cls._fields, cls._records, cls._numbers = tuple(read), tuple(records), tuple(numbers)
    return cls


class _Checked:
    """Base of the input records, each built by _record: every field carries
    its rule (see _rule), and a record checks its fields by them when built."""

    def __post_init__(self):
        for name, types, message, _ in self._records:
            if not isinstance(getattr(self, name), types):
                raise ValidationError(message)
        for name, rule in self._numbers:
            _check_number(name, getattr(self, name), rule)


def _with_checked(record, **fields):
    """A copy of a frozen record with fields set to values that are already
    checked, without running __post_init__ again."""
    new = object.__new__(type(record))
    new.__dict__.update(vars(record), **fields)
    return new


@_record
class PowerCurve(_Checked):
    """Linear operating-power model: P_op = slope_a * P_tx + offset_b_w."""

    slope_a: float = _rule(_POSITIVE)       # dimensionless
    offset_b_w: float = _rule(_POSITIVE)    # Watt, draw at zero transmit power


@_record
class TxAnchor(_Checked):
    """Reference point that pins the transmit-power scaling law.

    Transmit power scales as power_w * (r / radius_m)^alpha
    * (f / carrier_hz)^freq_exponent, so a base station whose coverage
    radius and carrier equal the anchor's transmits exactly power_w.
    The defaults, 10 W at 500 m on the 5.8 GHz band, reproduce the
    published calibration table.
    """

    power_w: float = _rule(_POSITIVE, 10.0)
    radius_m: float = _rule(_POSITIVE, 500.0)
    carrier_hz: float = _rule(_POSITIVE, 5.8e9)
    freq_exponent: float = _rule(_NON_NEGATIVE, 2.0)


@_record
class Overheads(_Checked):
    """S1 feeder protocol overhead and X2 handover overhead, as fractions
    of the user-plane cell throughput."""

    s1: float = _rule(_UNIT, 0.10)
    x2: float = _rule(_UNIT, 0.04)


@_record
class EmbodiedAbsolute(_Checked):
    """Embodied energy given directly as initial + maintenance Joules."""

    init_j: float = _rule(_NON_NEGATIVE)
    maint_j: float = _rule(_NON_NEGATIVE)


@_record
class EmbodiedFraction(_Checked):
    """Embodied energy specified as a fraction of total lifetime energy.

    fraction = E_em / (E_em + E_op), so E_em = E_op * f / (1 - f).
    """

    fraction: float = _rule(_OPEN_UNIT)


EmbodiedRule = Union[EmbodiedAbsolute, EmbodiedFraction]


@_record
class FixedSE(_Checked):
    """Constant average spectrum efficiency, bit/s/Hz."""

    bit_per_s_per_hz: float = _rule(_NON_NEGATIVE)


@_record
class ShannonEdgeSE(_Checked):
    """Cell-edge Shannon capacity model, calibrated at a reference radius.

    The cell's spectrum efficiency equals calibration_se when its radius
    equals ref_radius_m, for every path loss exponent; see link_model.
    """

    calibration_se: float = _rule(_POSITIVE)        # bit/s/Hz at the reference radius
    ref_radius_m: float = _rule(_POSITIVE, 50.0)


SpectrumEffSource = Union[FixedSE, ShannonEdgeSE]


@_record
class CellParams(_Checked):
    """Per-class (macro or small) base station parameters."""

    bandwidth_hz: float = _rule(_POSITIVE)
    spectrum_eff: SpectrumEffSource = _rule({"fixed": FixedSE, "shannon_edge": ShannonEdgeSE})
    radius_m: float = _rule(_POSITIVE)
    power_curve: PowerCurve = _rule(PowerCurve)
    lifetime_s: float = _rule(_POSITIVE)
    embodied: EmbodiedRule = _rule({"absolute": EmbodiedAbsolute,
                                    "fraction_of_total": EmbodiedFraction})


@_record
class Central(_Checked):
    """All small cells backhaul into one macro base station."""

    n_small: int = _rule(_COUNT)


@_record
class Distribution(_Checked):
    """A cooperative cluster of small cells relays toward a gateway cell."""

    k_cluster: int = _rule(_COUNT_1)


Architecture = Union[Central, Distribution]


def _finite_total(total: float, arch: Architecture, what: str) -> float:
    """A scenario total, or a ValidationError naming the station count if it overflowed.

    The per-station terms are checked finite where they are computed, and
    none is negative, so an overflow on the way shows up as an inf total.
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


@_record
class ScenarioConfig(_Checked):
    """Complete description of one backhaul evaluation."""

    architecture: Architecture = _rule({"central": Central, "distribution": Distribution})
    band_hz: float = _rule(_POSITIVE, 5.8e9)            # carrier of the backhaul links
    small: CellParams = _rule(CellParams, _TABLE1["small"])
    alpha: float = _rule(_POSITIVE, 3.2)                # urban path loss exponent
    tx_anchor: TxAnchor = _rule(TxAnchor, TxAnchor())
    overheads: Overheads = _rule(Overheads, Overheads())
    macro: CellParams | None = _rule(CellParams, None)  # required iff architecture is Central

    def __post_init__(self):
        super().__post_init__()
        # the one cross-field rule: fill the default macro cell, or reject
        # one for the distribution architecture
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
# ---------------------------------------------------------------------------

def _read(kind, obj, prefix: str, defaults=None):
    """Build a record (kind is its class) or a tagged union member (kind is a
    {tag: class} map) from the JSON object at key path prefix: "" for the
    document, else the object's path and a dot.

    Keys the object omits come from defaults, else from the dataclass
    defaults; a key with neither is an error.  The record checks its own
    values; its error gets the object's JSON path as a prefix.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"{prefix[:-1] or 'config'}: must be an object")
    cls, tagged = kind, isinstance(kind, dict)
    if tagged:
        tag = obj.get("type")
        cls = kind.get(tag) if isinstance(tag, str) else None
        if cls is None:
            raise ValidationError(
                f"{prefix}type: must be {' or '.join(repr(t) for t in kind)}")
    allowed = cls._keys_with_type if tagged else cls._rules.keys()
    if not obj.keys() <= allowed:
        raise ValidationError(f"{prefix[:-1] or 'config'}: unknown key(s) "
                              f"{sorted(obj.keys() - allowed)}")
    values = []
    for key, nested, default in cls._fields:
        v = obj.get(key, MISSING)
        if v is MISSING:
            v = default if defaults is None else getattr(defaults, key)
            if v is MISSING:
                raise ValidationError(f"{prefix}{key}: missing")
        elif nested is not None:
            # a cell object fills the keys it omits from the Table-1 cell of its class
            v = _read(nested, v, f"{prefix}{key}.", _TABLE1.get(key))
        values.append(v)
    try:
        return cls(*values)
    except ValidationError as e:
        raise ValidationError(f"{prefix}{e}") from e


def _write(record, tags=None) -> dict:
    """JSON object of a record: its "type" tag if it is a tagged union member
    (tags maps its class to the tag), then its fields in declaration order,
    leaving out a None record."""
    # a dataclass instance's __dict__ holds its fields in declaration order
    doc = vars(record).copy() if tags is None else {"type": tags[type(record)], **vars(record)}
    for key, _, _, key_tags in record._records:
        if doc[key] is None:
            del doc[key]
        else:
            doc[key] = _write(doc[key], key_tags)
    return doc


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a parsed JSON document."""
    return _read(ScenarioConfig, doc, "")


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
    return _write(cfg)


def serialize_scenario(cfg: ScenarioConfig) -> str:
    """Serialize to JSON text; load_scenario() round-trips it exactly."""
    return json.dumps(scenario_to_dict(cfg), indent=2)

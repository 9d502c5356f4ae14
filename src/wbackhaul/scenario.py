"""Domain types, calibration defaults, and JSON scenario loading.

All quantities are SI: Hz, meters, Watts, Joules, seconds, bit/s.
Every type is a frozen dataclass and safe to share between threads.
Its methods are not generated per class but shared, from _Frozen: a
record's constructor is Record(*fields, **fields), each field given by
position or keyword once, and those left out taking their defaults.  A
wrong call is a TypeError naming the record: "Record() takes N positional
arguments but M were given", "Record() missing required argument 'f'",
"Record() got multiple values for argument 'f'" or "Record() got an
unexpected keyword argument 'f'".  dataclasses.fields, replace and asdict
work on every record, and copy and pickle rebuild one by its constructor.
An input record's fields are its JSON keys, and each field carries the
rule that checks its value, reads it from a document and writes it back.
A record's one check is its __post_init__, run by its constructor and by
the reader alike.  One walk over the records, _text, writes a config as
the bytes json.dumps(indent=2) gives for its document, and
scenario_to_dict parses that text.  Text that is not JSON, or
holds an integer literal longer than the interpreter converts, is a
ParseError.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from inspect import Parameter, Signature
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
    """value as the Python int or float it equals, or a ValidationError naming
    name unless it passes the number rule.  numpy's float64 is a float, but its
    arithmetic runs in numpy, and an overflow there warns instead of giving
    the inf or OverflowError that the checks catch."""
    types, low, high, message = rule
    if not (isinstance(value, types) and not isinstance(value, bool)
            and low <= value <= high):
        raise ValidationError(f"{name}: {message}")
    return float(value) if isinstance(value, float) else int(value)


def _check_type(name: str, value, types, what: str):
    """A ValidationError naming the argument name unless value is an instance
    of types, which what describes."""
    if not isinstance(value, types):
        raise ValidationError(f"{name}: must be {what}, got {value!r}")


_ABOVE_0 = math.nextafter(0.0, 1.0)
_BELOW_1 = math.nextafter(1.0, 0.0)
_POSITIVE = ((int, float), _ABOVE_0, _FLOAT_MAX, "must be a number > 0")
_NON_NEGATIVE = ((int, float), 0, _FLOAT_MAX, "must be a number >= 0")
_OPEN_UNIT = ((int, float), _ABOVE_0, _BELOW_1, "must be a number in (0, 1)")
_UNIT = ((int, float), 0, _BELOW_1, "must be a number in [0, 1)")
_COUNT = (int, 0, _FLOAT_MAX, "must be an integer >= 0")
_COUNT_1 = (int, 1, _FLOAT_MAX, "must be an integer >= 1")


def _check_positive(**args) -> list:
    """The values of args as the Python numbers they equal, or a
    ValidationError naming the first that is not a number > 0."""
    return [_check_number(name, value, _POSITIVE) for name, value in args.items()]


def _rule(rule, default=MISSING):
    """A record field with its rule: a number rule, a record class, or a
    {tag: class} tagged union, whose JSON object names its class by the tag
    in its "type" key.  A record field that defaults to None may also be None."""
    return field(default=default, metadata={"rule": rule})


class _Frozen:
    """Base of every record.  A subclass that declares fields becomes a
    dataclass of them, with no method generated: dataclasses.fields,
    replace and asdict work on it, and its methods are these, shared.  The
    constructor takes the fields by position or keyword, fills defaults,
    then runs __post_init__; an argument too many, missing, repeated or
    unknown is a TypeError.  The repr is the dataclass one, and a field can
    be neither assigned nor deleted (dataclasses.FrozenInstanceError).  A
    record compares and hashes by identity, or by its fields' values where
    it is a _Value."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__annotations__" in vars(cls):   # a record, not a base such as _Value
            dataclass(init=False, repr=False, eq=False)(cls)
            cls._defaults = {f.name: f.default for f in fields(cls)}
            # the signature that help() and inspect show for the constructor
            cls.__signature__ = Signature([Parameter(
                f.name, Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type,
                default=Parameter.empty if f.default is MISSING else f.default)
                for f in fields(cls)], return_annotation=None)

    def __init__(self, *args, **kwargs):
        defaults = self._defaults   # {field: default or MISSING}, in declaration order
        if kwargs or len(args) != len(defaults):   # else each field by position
            record = type(self).__qualname__
            if len(args) > len(defaults):
                raise TypeError(f"{record}() takes {len(defaults)} positional arguments "
                                f"but {len(args)} were given")
            given = dict(zip(defaults, args))
            for name in kwargs:
                if name in given or name not in defaults:
                    raise TypeError(f"{record}() got " + (
                        f"multiple values for argument {name!r}" if name in given
                        else f"an unexpected keyword argument {name!r}"))
            given.update(kwargs)
            args = [given.get(name, default) for name, default in defaults.items()]
            for name, value in zip(defaults, args):
                if value is MISSING:
                    raise TypeError(f"{record}() missing required argument {name!r}")
        values = self.__dict__
        for name, value in zip(defaults, args):
            values[name] = value
        self.__post_init__()

    def __post_init__(self):
        pass

    def __repr__(self):
        values = self.__dict__
        return "%s(%s)" % (type(self).__qualname__,
                           ", ".join(f"{name}={values[name]!r}" for name in self._defaults))

    def __reduce__(self):
        # a copy, deep or not, and an unpickled record are built by the
        # constructor, so they are checked and hold read-only arrays of their own
        return type(self), tuple(map(self.__dict__.__getitem__, self._defaults))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Value(_Frozen):
    """A record that compares and hashes by the tuple of its fields' values,
    as a frozen dataclass does."""

    def __eq__(self, other):
        # a record's __dict__ holds its fields alone
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(map(self.__dict__.__getitem__, self._defaults)))


class _Checked(_Value):
    """Base of the input records: every field carries its rule (see _rule),
    and a record checks its fields by them when built, whether by its
    constructor or by _read."""

    def __init_subclass__(cls, **kwargs):
        """The rule tables of the record's fields, built once per class: every
        record built runs __post_init__, every object of a document runs
        _read and every record written runs _text."""
        super().__init_subclass__(**kwargs)
        # _rules: {field: rule} in declaration order;
        # _fields: (field, record rule or None, default, a union's {class: tag}
        #   or None) in declaration order, for the reader and the writer;
        # _records: (field, types, message);
        # _numbers: (field, the rule's types as a tuple, low, high, number rule);
        # _keys_with_type: a union member's JSON keys.
        cls._rules = {f.name: f.metadata["rule"] for f in fields(cls)}
        cls._keys_with_type = frozenset(cls._rules) | {"type"}
        read, records, numbers = [], [], []
        for f in fields(cls):
            name, rule, default = f.name, f.metadata["rule"], f.default
            if isinstance(rule, tuple):
                read.append((name, None, default, None))
                types = rule[0] if isinstance(rule[0], tuple) else (rule[0],)
                numbers.append((name, types, rule[1], rule[2], rule))
                continue
            union = isinstance(rule, dict)
            types = tuple(rule.values()) if union else (rule,)
            message = f"{name}: must be {' or '.join(t.__name__ for t in types)}"
            if default is None:
                types, message = types + (type(None),), message + " or None"
            tags = {c: tag for tag, c in rule.items()} if union else None
            read.append((name, rule, default, tags))
            records.append((name, types, message))
        cls._fields, cls._records, cls._numbers = tuple(read), tuple(records), tuple(numbers)

    def __post_init__(self):
        values = self.__dict__
        for name, types, message in self._records:
            if not isinstance(values[name], types):
                raise ValidationError(message)
        for name, types, low, high, rule in self._numbers:
            value = values[name]
            # a plain int or float of the rule's types passes here; anything
            # else is checked in full and stored as the plain number it equals
            if type(value) not in types or not low <= value <= high:
                values[name] = _check_number(name, value, rule)


def _checked(cls, **fields):
    """A frozen record of cls holding fields that are already checked, built
    without running __post_init__."""
    new = object.__new__(cls)
    new.__dict__.update(fields)
    return new


def _with_checked(record, **fields):
    """A copy of a frozen record with fields set to values that are already
    checked, without running __post_init__ again."""
    return _checked(type(record), **{**vars(record), **fields})


class PowerCurve(_Checked):
    """Linear operating-power model: P_op = slope_a * P_tx + offset_b_w."""

    slope_a: float = _rule(_POSITIVE)       # dimensionless
    offset_b_w: float = _rule(_POSITIVE)    # Watt, draw at zero transmit power


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


class Overheads(_Checked):
    """S1 feeder protocol overhead and X2 handover overhead, as fractions
    of the user-plane cell throughput."""

    s1: float = _rule(_UNIT, 0.10)
    x2: float = _rule(_UNIT, 0.04)


class EmbodiedAbsolute(_Checked):
    """Embodied energy given directly as initial + maintenance Joules."""

    init_j: float = _rule(_NON_NEGATIVE)
    maint_j: float = _rule(_NON_NEGATIVE)


class EmbodiedFraction(_Checked):
    """Embodied energy specified as a fraction of total lifetime energy.

    fraction = E_em / (E_em + E_op), so E_em = E_op * f / (1 - f).
    """

    fraction: float = _rule(_OPEN_UNIT)


EmbodiedRule = Union[EmbodiedAbsolute, EmbodiedFraction]


class FixedSE(_Checked):
    """Constant average spectrum efficiency, bit/s/Hz."""

    bit_per_s_per_hz: float = _rule(_NON_NEGATIVE)


class ShannonEdgeSE(_Checked):
    """Cell-edge Shannon capacity model, calibrated at a reference radius.

    The cell's spectrum efficiency equals calibration_se when its radius
    equals ref_radius_m, for every path loss exponent; see link_model.
    """

    calibration_se: float = _rule(_POSITIVE)        # bit/s/Hz at the reference radius
    ref_radius_m: float = _rule(_POSITIVE, 50.0)


SpectrumEffSource = Union[FixedSE, ShannonEdgeSE]


class CellParams(_Checked):
    """Per-class (macro or small) base station parameters."""

    bandwidth_hz: float = _rule(_POSITIVE)
    spectrum_eff: SpectrumEffSource = _rule({"fixed": FixedSE, "shannon_edge": ShannonEdgeSE})
    radius_m: float = _rule(_POSITIVE)
    power_curve: PowerCurve = _rule(PowerCurve)
    lifetime_s: float = _rule(_POSITIVE)
    embodied: EmbodiedRule = _rule({"absolute": EmbodiedAbsolute,
                                    "fraction_of_total": EmbodiedFraction})


class Central(_Checked):
    """All small cells backhaul into one macro base station."""

    n_small: int = _rule(_COUNT)


class Distribution(_Checked):
    """A cooperative cluster of small cells relays toward a gateway cell."""

    k_cluster: int = _rule(_COUNT_1)


Architecture = Union[Central, Distribution]


def _pow(base: float, exponent: float) -> float:
    """pow(base, exponent), inf where it overflows a float: the power of the
    scalar kernels, power_energy._tx and link_model._se."""
    try:
        return pow(base, exponent)
    except OverflowError:
        return math.inf


def _finite_total(total: float, arch: Architecture, what: str) -> float:
    """A scenario total, or a ValidationError naming the station count if it overflowed.

    It is checked after every cell's and station's own terms
    (traffic._check_cells, power_energy._check_stations), none of which is
    negative, so a total that is not finite with each of them finite
    overflowed at the count.
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


class ThroughputBreakdown(_Value):
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


class EnergyBreakdown(_Value):
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
    defaults; a key with neither is an error.  The values go straight into
    a new record, which then checks them by the __post_init__ its
    constructor runs; an error gets the object's JSON path as a prefix.
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
                              f"{sorted(obj.keys() - allowed, key=str)}")
    record = object.__new__(cls)
    values = record.__dict__    # filled in declaration order, as the constructor does
    for key, nested, default, _ in cls._fields:
        v = obj.get(key, MISSING)
        if v is MISSING:
            v = default if defaults is None else defaults.__dict__[key]
            if v is MISSING:
                raise ValidationError(f"{prefix}{key}: missing")
        elif nested is not None:
            # a cell object fills the keys it omits from the Table-1 cell of its class
            v = _read(nested, v, f"{prefix}{key}.", _TABLE1.get(key))
        values[key] = v
    try:
        record.__post_init__()
    except ValidationError as e:
        raise ValidationError(f"{prefix}{e}") from e
    return record


def _text(record, tag, pad: str) -> str:
    """JSON text of a record, as json.dumps(indent=2) writes an object whose
    fields are indented by pad (a newline and spaces): its "type" tag if it
    is a tagged union member, then its fields in declaration order, leaving
    out a None record.  Every number field holds a checked Python int or
    float, finite, whose repr is its JSON text."""
    inner = pad + "  "
    items = [] if tag is None else ['"type": "%s"' % tag]
    values = record.__dict__
    for key, nested, _, tags in record._fields:
        value = values[key]
        if nested is None:
            items.append('"%s": %r' % (key, value))
        elif value is not None:
            items.append('"%s": %s' % (key, _text(value, tags and tags[type(value)], inner)))
    return "{" + inner + ("," + inner).join(items) + pad + "}"


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a parsed JSON document."""
    return _read(ScenarioConfig, doc, "")


def load_scenario(source: str) -> ScenarioConfig:
    """Parse JSON config text into a validated ScenarioConfig.

    Omitted fields are filled with the calibration defaults.  Raises
    ParseError for malformed or too deeply nested JSON, or for an integer
    literal too long to convert, and ValidationError (naming the field's
    JSON path) for any invariant violation or unknown key.
    """
    _check_type("source", source, (str, bytes, bytearray), "str, bytes or bytearray")
    try:
        doc = json.loads(source)
    except (ValueError, RecursionError) as e:
        # ValueError: a JSONDecodeError, or an integer literal past the
        # interpreter's digit limit; RecursionError: arrays or objects
        # nested deeper than the parser's stack
        raise ParseError(f"invalid JSON: {e}") from e
    return scenario_from_dict(doc)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """The JSON document of a config: serialize_scenario's text, parsed."""
    return json.loads(serialize_scenario(cfg))


def serialize_scenario(cfg: ScenarioConfig) -> str:
    """Serialize to JSON text, the bytes json.dumps(indent=2) writes for the
    config's document; load_scenario() round-trips it."""
    _check_type("cfg", cfg, ScenarioConfig, "a ScenarioConfig")
    return _text(cfg, None, "\n")

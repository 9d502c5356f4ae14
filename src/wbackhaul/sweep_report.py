"""Parameter-sweep engine, figure presets, calibration report, JSON output.

A sweep is a base scenario plus an ordered tuple of named axes; it
records throughput, system energy, and efficiency at every point of the
axes' cross product, the first axis varying slowest.  parse_axis reads
an axis from its spec, for the CLI and the figure presets alike: a range
as a read-only numpy array, a list as a tuple.  A grid holds every axis
as one read-only numpy array (see _axis_pair): float64 for plain floats,
int64 for plain ints, else an object array of the values as given.  A
sweep checks each axis once, not once per point: a float64 float axis,
or an int64 axis, by its ends and one NaN test, and is computed with as
it is, save that an int64 float axis's ints go in an object array; any
other axis value by value, its checked numbers in an object array, where
an int meets an int as in Python.  It evaluates the whole
grid as float64 columns, bit for bit as efficiency() evaluates each
point, by the same two functions, traffic._throughput_fields and
power_energy._energy_fields, on the base scenario with each axis's
numbers set in its field as a column: a point calls them with pow,
math.log2 and float, and the grid with _power
(np.float_power, whose loop calls libm's pow), _log2 (math.log2 element
by element) and np.float64.  A grid with a bad point ends in the error
of the first one in row order, which the checks and the columns locate:
that one point is built and evaluated by efficiency() to raise it.  One
writer, sweep_text, turns the columns into CSV or JSON text: the bytes
of %d and %.17e per cell, or those json_text writes for the rows as
objects.  It lays the rows out as byte matrices, each float cell the
field of a numpy kernel (_kernels: e17_fields for %.17e, repr_fields for
JSON), with no Python call per float cell and one kernel call per piece
of rows: it formats the piece's values of each column with a value per
row, and the next values of each column the grid holds once per
combination of fewer axes, so each computed value is formatted once.
Only parse_axis (for a range), SweepGrid, run_sweep and sweep_text
import numpy, and the last two _kernels, on their first call,
so the calibration report and json_text load without them, and the
figure presets are built on first use.  The presets reproduce the
qualitative curves the model is known for: throughput vs. cell count,
efficiency vs. cell count per band, and efficiency vs. path loss
exponent per small-cell radius.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import replace
from typing import Callable, NamedTuple

from . import power_energy, traffic
from .scenario import (
    CellParams,
    Central,
    ConfigError,
    Distribution,
    FixedSE,
    ScenarioConfig,
    ShannonEdgeSE,
    ValidationError,
    _check_number,
    _check_type,
    _Frozen,
    _Value,
    _checked,
    _with_checked,
    default_table1,
)


class Axis(NamedTuple):
    """Everything a sweep needs to know about one named axis."""

    arch: type | None   # base architecture required: set on the integer count axes only
    field: tuple        # path of the scenario field the axis sets
    part: Callable      # an axis value -> the checked field value, or a ValidationError
    rule: tuple         # the number rule that part checks a value by
    record: type | None  # the record of the one number that part builds, if it builds one


def _axis(arch: type | None, field: tuple, record: type, key: str) -> Axis:
    """The axis whose values are the number field key of record.  Its part
    is that record of the value where the scenario field holds the record,
    else the value, checked by the field's own rule, as the Python number it
    equals, as a record stores it."""
    rule = record._rules[key]
    if field[-1] != key:
        return Axis(arch, field, record, rule, record)
    return Axis(arch, field, lambda value: _check_number(key, value, rule), rule, None)


AXES = {
    "n_small": _axis(Central, ("architecture",), Central, "n_small"),
    "k_cluster": _axis(Distribution, ("architecture",), Distribution, "k_cluster"),
    "alpha": _axis(None, ("alpha",), ScenarioConfig, "alpha"),
    "small_se": _axis(None, ("small", "spectrum_eff"), FixedSE, "bit_per_s_per_hz"),
    "band": _axis(None, ("band_hz",), ScenarioConfig, "band_hz"),
    "small_radius": _axis(None, ("small", "radius_m"), CellParams, "radius_m"),
}

# Largest grid a sweep builds, per axis and over the whole cross product.
MAX_POINTS = 10**6


def parse_axis(spec: str) -> tuple:
    """(name, values) of one axis spec: name=start:stop:step, a range that
    includes stop, or name=v1,v2,...  A station-count axis takes integers;
    every other name takes finite floats.  A list's values are a tuple.  A
    range's are a read-only numpy array: float64, or int64 for a count axis,
    whose values past int64 are a tuple of Python ints instead."""
    _check_type("spec", spec, str, "a str")
    if "=" not in spec:
        raise ValidationError(f"axis {spec!r}: expected <name>=<start>:<stop>:<step>")
    name, _, rhs = spec.partition("=")
    name = name.strip()
    integer = name in AXES and AXES[name].arch is not None

    def conv(tok: str):
        try:
            v = int(tok) if integer else float(tok)
            if integer or math.isfinite(v):
                return v
        except ValueError:
            pass
        raise ValidationError(f"axis {name}: bad number {tok!r}")

    if ":" not in rhs:
        return name, tuple(conv(tok) for tok in rhs.split(","))
    parts = rhs.split(":")
    if len(parts) != 3:
        raise ValidationError(
            f"axis {name}: expected <start>:<stop>:<step>, got {rhs!r}")
    start, stop, step = (conv(p) for p in parts)
    if step <= 0:
        raise ValidationError(f"axis {name}: step must be > 0")
    # a float range tolerates rounding up to 1e-9 of a step beyond stop
    steps = (stop - start) // step if integer else (stop - start) / step + 1e-9
    count = math.floor(min(steps, MAX_POINTS)) + 1 if steps >= 0 else 0
    if count > MAX_POINTS:
        raise ValidationError(f"axis {name}: more than {MAX_POINTS} values")
    # value i is start + i * step, one product and one sum, each rounded as
    # Python rounds them; i == 0 is start itself, so a start of -0.0 keeps its sign
    ends = (start, step, (count - 1) * step, start + (count - 1) * step)
    if integer and not (-2**63 <= min(ends) and max(ends) < 2**63):
        return name, tuple(start + i * step for i in range(count))
    import numpy as np

    with np.errstate(over="ignore"):   # a float past the range is inf, as in Python
        values = np.append(np.array([start][:count], dtype=np.int64 if integer else float),
                           start + np.arange(1, count) * step)
    values.flags.writeable = False
    return name, values


def _axis_pair(axis) -> tuple:
    """(name, values) of one axis, or a ValidationError naming it, values
    a read-only 1-d numpy array.  A read-only 1-d float64 or int64 array
    that owns its data, as parse_axis gives, is kept as it is.  Any other
    1-d float64 or int64 array, writable, a view or in the other byte order,
    is kept as a read-only copy in the native byte order, so that no write
    through the caller's array can change it.  Other values are float64
    where each is a Python float, int64 where each is a Python int that
    int64 holds, else an object array of the values as they are given."""
    try:
        name, values = axis
        import numpy as np

        if not (isinstance(values, np.ndarray) and values.ndim == 1
                and values.dtype.kind in "fi" and values.dtype.itemsize == 8):
            values = tuple(values)
            kinds = set(map(type, values))
            # fromiter, unlike np.array, keeps a list or an array among the values one element
            values = (np.array(values, dtype=float) if kinds == {float} else
                      np.array(values, dtype=np.int64) if kinds == {int} and -2**63 <= min(values)
                      and max(values) < 2**63 else np.fromiter(values, object, len(values)))
        elif values.base is not None or values.flags.writeable or not values.dtype.isnative:
            values = values.astype(values.dtype.kind + "8")   # float64 or int64, native
        values.flags.writeable = False
        return name, values
    except (TypeError, ValueError):
        raise ValidationError(f"axis {axis!r}: must be a (name, values) pair") from None


class SweepGrid(_Frozen):
    """A base scenario and the (name, values) axes swept over it, first
    slowest.  An axis's values are a read-only numpy array (see _axis_pair),
    so a grid compares and hashes by identity."""

    base: ScenarioConfig
    axes: tuple

    def __post_init__(self):
        import numpy as np

        _check_type("base", self.base, ScenarioConfig, "a ScenarioConfig")
        try:
            axes = iter(self.axes)
        except TypeError:
            raise ValidationError(
                f"axes: must be a tuple of (name, values) pairs, got {self.axes!r}") from None
        object.__setattr__(self, "axes", tuple(_axis_pair(a) for a in axes))
        if not self.axes:
            raise ValidationError("axes: at least one axis is required")
        for i, (name, values) in enumerate(self.axes):
            axis = AXES.get(name) if isinstance(name, str) else None
            if axis is None:
                raise ValidationError(
                    f"axis: unknown axis {name!r}, expected one of {tuple(AXES)}")
            if len(values) == 0:
                raise ValidationError(f"axis {name}: values must be non-empty")
            # a NaN passes, as neither comparison with it holds: _numbers finds it; a
            # float32 next to a float past its range, or a NaN in an object array, warns
            with np.errstate(all="ignore"):
                try:
                    unordered = (values[1:] <= values[:-1]).any()
                except (TypeError, ValueError):   # values that do not compare, or give arrays,
                    try:   # unless a pair before the first of them descends
                        unordered = any(b <= a for a, b in zip(values, values[1:]))
                    except (TypeError, ValueError):
                        raise ValidationError(f"axis {name}: values must be numbers") from None
            if unordered:
                raise ValidationError(f"axis {name}: values must be strictly increasing")
            if axis.arch is not None and not isinstance(self.base.architecture, axis.arch):
                raise ValidationError(
                    f"axis {name}: base scenario must be {axis.arch.__name__.lower()}")
            if name in self.axis_names[:i]:
                raise ValidationError(f"axis {name}: given more than once")
        points = math.prod(len(values) for _, values in self.axes)
        if points > MAX_POINTS:
            raise ValidationError(f"axes: {points} grid points, at most {MAX_POINTS}")

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.axes)


def _set(record, path: tuple, part):
    """record with the field at path, a tuple of field names, set to a checked part."""
    name, *rest = path
    return _with_checked(record, **{name: _set(getattr(record, name), rest, part)
                                    if rest else part})


def _along(values, place: int, ndim: int):
    """The 1-d array values reshaped to ndim dimensions, lying along the one
    at place: of length 1 on every other."""
    return values.reshape([-1 if p == place else 1 for p in range(ndim)])


def run_sweep(grid: SweepGrid) -> list[tuple]:
    """Evaluate every grid point, the first axis varying slowest.  A row is
    the point's output cells: its axis values, then throughput_bps,
    system_energy_j and efficiency, as in the CSV header.  See
    _sweep_columns, which evaluates the grid and raises a bad row's error.
    """
    import numpy as np

    shape, columns = _sweep_columns(grid)
    return list(zip(*(np.broadcast_to(c, shape).ravel().tolist() for c in columns)))


def _sweep_columns(grid: SweepGrid) -> tuple[list, list]:
    """The grid's shape and one array per output column, in the order of
    the CSV header, with a dimension per axis, each the axis's length or 1:
    an axis's values, as _numbers checked them to be, lie along its own
    dimension (see _along), and a value column has length 1 where it does
    not depend on the axis, as _grid_columns computes it.

    Each axis is checked once, as one column where it can be (see
    _numbers), and the whole grid is evaluated at once, bit for bit as
    efficiency() evaluates each point: see _grid_columns.  A grid with a bad
    row, one that holds a value failing its check or a point efficiency()
    cannot evaluate, raises the error of the first one: the earlier of the
    first row that holds a failing value and the first row whose energy or
    efficiency is not finite, of the grid of each axis's values before its
    first failing one, which holds every row before the former.  See
    _raise_point_error.
    """
    import numpy as np   # here, not at the top: eval and verify-table1 never load numpy

    _check_type("grid", grid, SweepGrid, "a SweepGrid")
    axes = [AXES[name] for name in grid.axis_names]
    numbers = [_numbers(name, axis, values) for axis, (name, values) in zip(axes, grid.axes)]
    shape, good = [len(values) for _, values in grid.axes], [len(n) for n in numbers]
    size = math.prod(shape)
    # value j of an axis first appears at row j times the points of the axes after it
    bad = min((j * math.prod(shape[place + 1:]) for place, j in enumerate(good)
               if j < shape[place]), default=size)
    try:
        with np.errstate(all="ignore"):
            columns = _grid_columns(grid.base, axes, numbers)
    except ArithmeticError:   # raised by the base scenario's integer Joules alone: at row 0
        bad = 0
    else:
        ok = np.broadcast_to(np.isfinite(columns[1]) & np.isfinite(columns[2]), good).ravel()
        if not ok.all():
            bad = min(bad, int(np.ravel_multi_index(np.unravel_index(ok.argmin(), good), shape)))
    if bad < size:
        _raise_point_error(grid, np.unravel_index(bad, shape))
    points = [_along(values, place, len(shape)) for place, values in enumerate(numbers)]
    return shape, points + [np.array(c, ndmin=len(shape)) for c in columns]


def _numbers(name: str, axis: Axis, values):
    """values (see _axis_pair) as an array of the plain Python numbers they
    equal, up to the first that fails the axis's number rule.  A value fails
    exactly where the axis's part raises, but no record is built here.

    An int64 array, or a float64 array on a float axis, is checked as a
    whole: its two ends within the rule's bounds (SweepGrid saw it ascend),
    and no NaN, which the order check passes over.  It is returned as it
    is, its elements standing for the Python numbers they equal, except
    int64 on a float axis, whose ints go on in an object array, so that
    numpy computes with them as Python computes with ints.  Any other array
    is checked by _check_number, value by value, up to the first that
    fails, and its numbers go on in an object array.
    """
    import numpy as np

    _, low, high, _ = axis.rule
    if ((values.dtype == np.int64 or values.dtype == np.float64 and not axis.arch)
            and low <= values.item(0) and values.item(-1) <= high and not np.isnan(values).any()):
        return values if axis.arch or values.dtype == np.float64 else \
            np.array(values.tolist(), dtype=object)
    numbers = []
    try:   # keeps the numbers checked before one raises
        numbers.extend(_check_number(name, value, axis.rule) for value in values.tolist())
    except ConfigError:
        pass
    return np.array(numbers, dtype=object)


def _raise_point_error(grid: SweepGrid, index: tuple):
    """Raise the error of the grid point at index, one value index per axis,
    as evaluating the grid point by point in row order would: that of its
    first value, outermost first, that fails its check, else efficiency()'s,
    tagged with the axis and value."""
    cfg = grid.base
    try:
        for (name, values), i in zip(grid.axes, index):
            # an element as the Python number it stands for, or as it was given
            value = values.item(i)
            where = f"grid point {name}={value!r}"
            cfg = _set(cfg, AXES[name].field, AXES[name].part(value))
        power_energy.efficiency(cfg)
    except ConfigError as e:
        raise ValidationError(f"{where}: {e}") from e
    raise RuntimeError(f"{where}: evaluates, but its grid columns are not finite")


def _grid_columns(base: ScenarioConfig, axes: list, numbers: list) -> tuple:
    """The throughput, energy and efficiency of every point of the grid of
    the axes' checked numbers.  The energy or the efficiency is not finite
    at exactly the points where efficiency() raises: energies are never
    < 0, so one of 0, or a throughput that is not finite, makes the
    efficiency not finite.

    The grid is one scenario: the base with each axis's numbers set in its
    field as a column along the axis's dimension (see _along), checked
    already, so put in by _set without a check.  A count column goes in a
    Central or Distribution, and the small_se column in a FixedSE.  The
    quantities are the drivers of a point, traffic._throughput_fields and
    power_energy._energy_fields, given _power and _log2, whose libm calls
    are those of the point's pow and math.log2, and np.float64 to convert
    a count.  They compute a column as they compute a float, in the same
    order of operations, so each quantity is a float64 array with one
    dimension per axis, of length 1 where it does not depend on the axis,
    computed once per combination of the axis values it reads.  A column
    is a float64 array, whose arithmetic is Python's for floats; an int64
    array of counts, which are only converted to float and decremented; or
    an object array of other checked numbers, so that numpy divides and
    subtracts them as Python does: an int by an int, say, is rounded once.
    """
    import numpy as np

    cfg = base
    for place, (axis, values) in enumerate(zip(axes, numbers)):
        column = _along(values, place, len(numbers))
        if axis.record is not None:   # a Central, Distribution or FixedSE of the column
            key, = axis.record._rules
            # a count stays an integer column; small_se's SE, which no power
            # converts, is float64, as a point multiplies it as a float
            column = _checked(axis.record, **{key: column if axis.arch else column.astype(float)})
        cfg = _set(cfg, axis.field, column)
    bps = traffic._throughput_fields(cfg, _power, _log2, np.float64)[6]
    energy = power_energy._energy_fields(cfg, _power, np.float64)[4]
    return bps, energy, bps / energy


def _power(base, exponent):
    """pow(base, exponent) at each element of the broadcast args, as float64:
    np.float_power's float64 loop calls libm's pow, as Python's pow does
    (np.power does not), and gives inf exactly where pow raises
    OverflowError, so it equals scenario._pow at each element."""
    import numpy as np

    return np.float_power(np.asarray(base, dtype=float), np.asarray(exponent, dtype=float))


def _log2(x):
    """math.log2 at each element of x, as a float64 array of its shape: one
    libm call per element, as the scalar kernel makes; numpy's own log2
    differs from it in the last bit of some elements."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.log2, x.ravel().tolist()), float, x.size).reshape(x.shape)


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

_CENTRAL = ScenarioConfig(architecture=Central(100))
_DISTRIBUTION = ScenarioConfig(architecture=Distribution(10))
_SHANNON_SMALL = replace(_CENTRAL.small, spectrum_eff=ShannonEdgeSE(
    calibration_se=5.0, ref_radius_m=50.0))

# each preset's base scenario and axis specs; its grid is built on first use,
# since parse_axis loads numpy for a range
_FIGURE_SPECS = {
    "fig3a": (_CENTRAL, "n_small=0:1000:25", "small_se=1,2.5,5,7.5,10"),
    "fig3b": (_DISTRIBUTION, "k_cluster=1:100:1", "small_se=1,2.5,5,7.5,10"),
    "fig4a": (_CENTRAL, "n_small=0:1000:25", "band=5.8e9,28e9,60e9"),
    "fig4b": (_DISTRIBUTION, "k_cluster=1:100:1", "band=5.8e9,28e9,60e9"),
    "fig5a": (replace(_CENTRAL, small=_SHANNON_SMALL),
              "alpha=2.5:4:0.05", "small_radius=20,30,40,50,75,100"),
    "fig5b": (replace(_DISTRIBUTION, small=_SHANNON_SMALL),
              "alpha=2.5:4:0.05", "small_radius=20,30,40,50,75,100"),
}

FIGURES = tuple(_FIGURE_SPECS)


def figure_grid(which: str) -> SweepGrid:
    """Preset sweep grid behind one of the named figure datasets."""
    if which not in FIGURES:
        raise ValidationError(f"figure: unknown dataset {which!r}, expected {FIGURES}")
    return _figure_grid(which)


@functools.cache
def _figure_grid(which: str) -> SweepGrid:
    """The preset's grid, its axes as parse_axis gives them."""
    base, *specs = _FIGURE_SPECS[which]
    return SweepGrid(base, tuple(map(parse_axis, specs)))


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------

VALUE_COLUMNS = ("throughput_bps", "system_energy_j", "efficiency_bps_per_j")


def json_text(doc) -> str:
    """JSON text of a machine output: indent 2, LF-terminated.  A non-finite
    number, which JSON cannot hold, is a ValidationError."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError as e:
        raise ValidationError(f"output: {e}") from e


def sweep_text(grid: SweepGrid, fmt: str) -> str:
    """The text of run_sweep(grid) (fmt "csv" or "json"), written from the
    grid's columns without building rows.  CSV: the header, then a line per
    row, a count in %d and every other number in full-precision %.17e, LF
    line endings.  JSON: the bytes json_text writes for the rows as an array
    of objects, a count as an integer and every other number as a float.

    The rows are laid out by _kernels.table_text, each float cell the field
    of a numpy kernel, e17_fields for CSV and repr_fields for JSON, so no
    float cell makes a Python call, and a count column, int64 or an object
    array of Python ints, is one astype to bytes.  Each piece of
    rows makes one kernel call, which formats each value once, whether its
    column has a value per row or fewer.
    """
    if fmt not in ("csv", "json"):
        raise ValidationError(f"format: expected 'csv' or 'json', got {fmt!r}")
    from . import _kernels

    shape, columns = _sweep_columns(grid)
    names = grid.axis_names + VALUE_COLUMNS
    # a station-count axis as %d text; an int on a float axis is a float
    cells = [c.astype(bytes) if name in AXES and AXES[name].arch is not None else c.astype(float)
             for name, c in zip(names, columns)]
    if fmt == "csv":
        pieces = _kernels.table_text(shape, cells, [b""] + [b","] * (len(names) - 1) + [b"\n"],
                                     _kernels.e17_fields)
        return "".join([",".join(names) + "\n", *pieces])
    keys = [b'    "%s": ' % name.encode() for name in names]
    pieces = _kernels.table_text(
        shape, cells, [b"  {\n" + keys[0], *(b",\n" + key for key in keys[1:]), b"\n  },\n"],
        _kernels.repr_fields)
    pieces[-1] = pieces[-1][:-2]   # no comma after the last row
    return "".join(["[\n", *pieces, "\n]\n"])


# ---------------------------------------------------------------------------
# Calibration-table verification
# ---------------------------------------------------------------------------

# Published calibration cells this model must reproduce: transmit power
# (checked to +/-0.5%) and operating power (the published integers are
# floored values computed from the published rounded transmit powers).
_TABLE_TX_W = {
    "macro": {5.8e9: 10.0, 28e9: 233.0, 60e9: 1070.0},
    "small": {5.8e9: 6.3e-3, 28e9: 0.147, 60e9: 0.675},
}
_TABLE_OP_W = {
    "macro": {5.8e9: 568, 28e9: 5352, 60e9: 23305},
    "small": {5.8e9: 71, 28e9: 72, 60e9: 76},
}

TX_REL_TOL = 0.005


class CellCheck(_Value):
    """One verified calibration cell."""

    label: str
    computed: float
    expected: float
    criterion: str
    passed: bool


def table1_report() -> tuple[CellCheck, ...]:
    """Recompute every derivable calibration cell and compare.

    Returns 12 checks (6 transmit-power, 6 operating-power), at the default
    path loss exponent and transmit anchor; failures are entries, never
    exceptions.
    """
    alpha, anchor = ScenarioConfig.alpha, ScenarioConfig.tx_anchor
    checks = []
    for cell_class in ("macro", "small"):
        params = default_table1(cell_class)
        for band_hz, tx_expected in _TABLE_TX_W[cell_class].items():
            ghz = band_hz / 1e9
            tx = power_energy.tx_power(params.radius_m, band_hz, alpha, anchor)
            checks.append(CellCheck(
                label=f"{cell_class} P_TX @ {ghz:g} GHz",
                computed=tx, expected=tx_expected,
                criterion=f"within +/-{TX_REL_TOL:.1%}",
                passed=abs(tx - tx_expected) / tx_expected <= TX_REL_TOL))
            # The published operating powers round-trip only from the
            # published (rounded) transmit powers, then floor to watts.
            op = power_energy._operating_power(params.power_curve, tx_expected)
            op_expected = _TABLE_OP_W[cell_class][band_hz]
            checks.append(CellCheck(
                label=f"{cell_class} P_OP @ {ghz:g} GHz",
                computed=op, expected=float(op_expected),
                criterion="floor equals published integer",
                passed=math.floor(op) == op_expected))
    return tuple(checks)

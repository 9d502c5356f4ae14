"""Command line interface.

Subcommands: eval, sweep, figures, verify-table1, topology.  Human
summaries go to stdout; machine-readable output goes to a file (--out),
to stdout (--stdout), or both.  Exit codes: 0 success, 1 validation or
parse error (also a failed verify-table1), 2 I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

from . import __version__, power_energy, sweep_report, topology
from .scenario import Central, ConfigError, ParseError, ValidationError, load_scenario


class _Parser(argparse.ArgumentParser):
    # usage problems (unknown flags, missing args) exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_PREFIXES = ((1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k"), (1.0, ""),
             (1e-3, "m"), (1e-6, "u"), (1e-9, "n"))


def _eng(value: float, unit: str) -> str:
    """Engineering-prefixed display with 6 significant digits."""
    if value == 0:
        return f"0 {unit}"
    for factor, prefix in _PREFIXES:
        if abs(value) >= factor:
            return f"{value / factor:.6g} {prefix}{unit}"
    return f"{value:.6g} {unit}"


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text: {e}") from e


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _rows_text(fmt: str, grid, rows) -> str:
    export = sweep_report.rows_to_csv if fmt == "csv" else sweep_report.rows_to_json
    return export(grid, rows)


def _emit(args, text: str) -> None:
    """Write machine output to --out and to stdout, whichever are given."""
    if not (args.out or args.stdout):
        raise ValidationError(f"{args.command}: --out <path> or --stdout required")
    if args.out:
        _write_text(args.out, text)
    if args.stdout:
        sys.stdout.write(text)


def _cmd_eval(args) -> int:
    cfg = load_scenario(_read_text(args.config))
    res = power_energy.efficiency(cfg)
    machine = {
        "throughput_bps": res.throughput_bps,
        "system_energy_j": res.system_energy_j,
        "efficiency_bps_per_j": res.efficiency,
        "throughput": asdict(res.throughput),
        "energy": asdict(res.energy),
    }
    if args.out or args.stdout:
        _emit(args, _json_text(machine))
    if args.stdout:
        return 0
    arch = cfg.architecture
    if isinstance(arch, Central):
        print(f"architecture: central (n_small={arch.n_small})")
    else:
        print(f"architecture: distribution (k_cluster={arch.k_cluster})")
    print(f"band: {_eng(cfg.band_hz, 'Hz')}")
    print(f"backhaul throughput: {_eng(res.throughput_bps, 'bit/s')}"
          f" ({res.throughput_bps:.6e} bit/s)")
    print(f"system energy: {_eng(res.system_energy_j, 'J')}"
          f" ({res.system_energy_j:.6e} J)")
    print(f"energy efficiency: {_eng(res.efficiency, 'bit/s/J')}"
          f" ({res.efficiency:.6e} bit/s per J)")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _parse_axis(spec: str) -> tuple[str, tuple]:
    if "=" not in spec:
        raise ValidationError(f"axis {spec!r}: expected <name>=<start>:<stop>:<step>")
    name, _, rhs = spec.partition("=")
    name = name.strip()
    axis = sweep_report.AXES.get(name)
    integer = axis is not None and axis.integer

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
    count = math.floor(min(steps, sweep_report.MAX_POINTS)) + 1 if steps >= 0 else 0
    if count > sweep_report.MAX_POINTS:
        raise ValidationError(
            f"axis {name}: more than {sweep_report.MAX_POINTS} values")
    # i == 0 is start itself, so a start of -0.0 keeps its sign
    return name, tuple(start + i * step if i else start for i in range(count))


def _cmd_sweep(args) -> int:
    cfg = load_scenario(_read_text(args.config))
    grid = sweep_report.SweepGrid(cfg, tuple(_parse_axis(spec) for spec in args.axis))
    rows = sweep_report.run_sweep(grid)
    _emit(args, _rows_text(args.format, grid, rows))
    if not args.stdout:
        print(f"swept {len(rows)} points over {'+'.join(grid.axis_names)}; "
              f"wrote {args.out}")
    return 0


def _cmd_figures(args) -> int:
    names = sweep_report.FIGURES if args.which == "all" else (args.which,)
    if args.stdout and len(names) > 1:
        raise ValidationError("figures: --stdout needs a single --which dataset")
    for name in names:
        grid = sweep_report.figure_grid(name)
        rows = sweep_report.run_sweep(grid)
        text = _rows_text(args.format, grid, rows)
        if args.stdout:
            sys.stdout.write(text)
            return 0
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{name}.{args.format}")
        _write_text(path, text)
        print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _cmd_verify_table1(args) -> int:
    report = sweep_report.table1_report()
    for c in report.checks:
        print(f"{c.label}: computed {c.computed:.6g} W, expected {c.expected:.6g} W "
              f"({c.criterion}): {'pass' if c.passed else 'FAIL'}")
    print(f"{report.n_passed}/{len(report.checks)} cells pass")
    if args.out:
        doc = [{"label": c.label, "computed": c.computed, "expected": c.expected,
                "criterion": c.criterion, "passed": c.passed}
               for c in report.checks]
        _write_text(args.out, _json_text(doc))
        print(f"wrote {args.out}")
    return 0 if report.passed else 1


def _cmd_topology(args) -> int:
    if args.gateway == topology.NEAREST_TO_CENTER:
        gateway = args.gateway
    else:
        try:
            gateway = int(args.gateway)
        except ValueError:
            raise ValidationError(
                f"--gateway: expected '{topology.NEAREST_TO_CENTER}' or an index, "
                f"got {args.gateway!r}") from None
    placement = topology.place_uniform(args.n, args.radius, args.seed)
    tree = topology.build_relay_tree(placement, gateway)
    tree = topology.link_loads(tree, args.per_cell_bps)
    _emit(args, _json_text(topology.export_topology(placement, tree)))
    if args.stdout:
        return 0
    ingress = topology.gateway_ingress_bps(tree)
    print(f"placed {placement.n} stations in a {args.radius:g} m disk "
          f"(seed {args.seed}, gateway index {tree.gateway_index})")
    print(f"gateway ingress: {_eng(ingress, 'bit/s')}; wrote {args.out}")
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="wbackhaul",
                description="Backhaul throughput, energy, and efficiency models "
                            "for small-cell networks.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    ev = sub.add_parser("eval", help="evaluate one scenario config")
    ev.add_argument("--config", required=True, help="scenario JSON path")
    ev.add_argument("--out", help="write machine-readable JSON result here")
    ev.add_argument("--stdout", action="store_true",
                    help="print machine JSON instead of the human summary")
    ev.set_defaults(func=_cmd_eval)

    sw = sub.add_parser("sweep", help="sweep parameters of a config over a grid")
    sw.add_argument("--config", required=True, help="base scenario JSON path")
    sw.add_argument("--axis", action="append", required=True,
                    metavar="name=start:stop:step",
                    help="swept axis; repeat for more axes, the first varying "
                         "slowest (also accepts name=v1,v2,...)")
    sw.add_argument("--out", help="output file")
    sw.add_argument("--format", choices=("csv", "json"), default="csv")
    sw.add_argument("--stdout", action="store_true", help="write rows to stdout")
    sw.set_defaults(func=_cmd_sweep)

    fg = sub.add_parser("figures", help="emit the preset figure datasets")
    fg.add_argument("--which", default="all",
                    choices=sweep_report.FIGURES + ("all",))
    fg.add_argument("--out", default=".", help="output directory")
    fg.add_argument("--format", choices=("csv", "json"), default="csv")
    fg.add_argument("--stdout", action="store_true",
                    help="write a single dataset to stdout")
    fg.set_defaults(func=_cmd_figures)

    vt = sub.add_parser("verify-table1",
                        help="recompute the published calibration cells")
    vt.add_argument("--out", help="write the JSON report here")
    vt.set_defaults(func=_cmd_verify_table1)

    tp = sub.add_parser("topology", help="generate a placement and relay tree")
    tp.add_argument("--n", type=int, required=True, help="number of small stations")
    tp.add_argument("--radius", type=float, default=500.0,
                    help="macro disk radius, meters (default 500)")
    tp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    tp.add_argument("--gateway", default=topology.NEAREST_TO_CENTER,
                    help="gateway rule: 'nearest-to-center' or a node index")
    tp.add_argument("--per-cell-bps", type=float, default=5.9e8,
                    help="per-station backhaul used for link loads "
                         "(default 5.9e8, one 100 MHz cell at 5 bit/s/Hz)")
    tp.add_argument("--out", help="output JSON file")
    tp.add_argument("--stdout", action="store_true", help="write JSON to stdout")
    tp.set_defaults(func=_cmd_topology)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

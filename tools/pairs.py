"""Run the layered benchmark in parent/change pairs and write a BENCH_*.json.

    python tools/pairs.py PARENT_REV CHANGE_REV --workload W --pairs N --pr PR
        [--seed S] [--out PATH]

Each revision is exported with `git archive` into its own temporary
directory, so both sides run from committed files only.  Each pair runs
`python3 layerbench/run.py --workload W --seed S --seconds T --trace 0`
once in each tree, T being BENCHMARK.json's run_seconds; odd pairs run the parent first, even pairs the change
first, so a drift in host speed falls on both sides alike.  The result,
BENCH_<PR>_<W>.json in the repository root unless --out is given, holds:

    command    the run.py command line of every run
    runs       how the pairs were run
    parent     the parent revision
    change     the change revision
    medians    per end-to-end metric of BENCHMARK.json: the parent and
               change medians and their ratio (change / parent)
    pair_wins  per metric: in how many pairs the change was better, the
               parent's interquartile range, and the difference of the
               medians (change - parent)
    pairs      every run's result JSON, as run.py wrote it

Exits 1 if any run failed an op or gave a wrong result, else 0.  If a
run.py child itself fails, the pair and side are reported on stderr and
the script exits 1 without writing the file.
"""
import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> None:
    """The committed files of rev, written under dest."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or tar.returncode:
        raise SystemExit(f"pairs: exporting {rev} failed")


def short(rev: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev],
                          check=True, capture_output=True, text=True).stdout.strip()


def run(tree: Path, argv: list, stem: str) -> dict | None:
    """run.py's result JSON, or None if the child exited nonzero."""
    if subprocess.run(argv, cwd=tree, stdout=subprocess.DEVNULL).returncode:
        return None
    with open(tree / ".bench_out" / f"{stem}.json", encoding="utf-8") as f:
        return json.load(f)


def summarize(pairs: list, metrics: list) -> tuple[dict, dict]:
    """The medians and pair_wins entries of the metrics over the pairs."""
    medians, wins = {}, {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in ("parent", "change")}
        mid = {side: statistics.median(v) for side, v in values.items()}
        q1, _, q3 = statistics.quantiles(values["parent"], n=4)
        medians[name] = {**mid, "ratio": mid["change"] / mid["parent"]}
        wins[name] = {
            "change_wins": sum((c > p) if higher else (c < p)
                               for p, c in zip(values["parent"], values["change"])),
            "pairs": len(pairs), "parent_iqr": q3 - q1,
            "median_diff": mid["change"] - mid["parent"]}
    return medians, wins


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_rev")
    ap.add_argument("change_rev")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--pr", required=True, help="the number in BENCH_<PR>_<W>.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, help="output path (default: BENCH_<PR>_<W>.json "
                                             "in the repository root)")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for an interquartile range")

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    stem = f"{args.workload}-seed{args.seed}-trace0"
    cmd = ["python3", "layerbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", f"{bench['run_seconds']:g}", "--trace", "0"]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for side, rev in (("parent", args.parent_rev), ("change", args.change_rev)):
            trees[side].mkdir()
            export(rev, trees[side])
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            pair = {}
            for side in order:
                pair[side] = run(trees[side], cmd, stem)
                if pair[side] is None:
                    print(f"pairs: pair {i}/{args.pairs} {side}: run.py failed; "
                          f"nothing written", file=sys.stderr)
                    return 1
                setup = pair[side]["metrics"]["setup_s"]["value"]
                print(f"pair {i}/{args.pairs} {side}: setup_s {setup:.4f}, "
                      f"failed {pair[side]['failed']}, correct {pair[side]['correct']}",
                      file=sys.stderr)
            pairs.append({"parent": pair["parent"], "change": pair["change"]})

    medians, wins = summarize(pairs, bench["end_to_end"])
    doc = {"command": " ".join(cmd),
           "runs": f"{args.pairs} pairs, alternating which side ran first (odd pairs "
                   f"parent first); each entry is the run's .bench_out/{stem}.json",
           "parent": f"{short(args.parent_rev)} (both sides ran from exported trees, "
                     f"so run.py's meta.commit reads \"unknown\")",
           "change": short(args.change_rev),
           "medians": medians, "pair_wins": wins, "pairs": pairs}
    out = args.out or ROOT / f"BENCH_{args.pr}_{args.workload}.json"
    with open(out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    for name, w in wins.items():
        print(f"{name}: {medians[name]['parent']:.6g} -> {medians[name]['change']:.6g}, "
              f"change better in {w['change_wins']}/{w['pairs']}, "
              f"parent IQR {w['parent_iqr']:.3g}", file=sys.stderr)
    print(f"wrote {out}", file=sys.stderr)
    return 0 if all(p[s]["failed"] == 0 and p[s]["correct"]
                    for p in pairs for s in ("parent", "change")) else 1


if __name__ == "__main__":
    sys.exit(main())

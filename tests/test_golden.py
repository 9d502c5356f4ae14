"""Golden outputs: every machine output the CLI writes, pinned by sha256.

A refactor that changes any byte of a figure dataset, a sweep, the
calibration report, an eval result, a serialized scenario or a topology
fails here.  The expected digests live in golden.sha256 next to this
file; after an intended output change, print the new ones with

    PYTHONPATH=src python tests/test_golden.py > tests/golden.sha256
"""
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from wbackhaul.cli import main
from wbackhaul.scenario import load_scenario, serialize_scenario

GOLDEN = Path(__file__).with_name("golden.sha256")

FIGURES = ("fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b")

CONFIGS = {
    "central_fixed": {
        "architecture": {"type": "central", "n_small": 100},
        "band_hz": 28e9,
        "small": {"spectrum_eff": {"type": "fixed", "bit_per_s_per_hz": 4.2}},
    },
    "distribution_shannon": {
        "architecture": {"type": "distribution", "k_cluster": 7},
        "band_hz": 60e9,
        "alpha": 3.7,
        "small": {"spectrum_eff": {"type": "shannon_edge", "calibration_se": 4.5,
                                   "ref_radius_m": 60},
                  "radius_m": 35},
    },
    "absolute_embodied": {
        "architecture": {"type": "central", "n_small": 12},
        "small": {"embodied": {"type": "absolute", "init_j": 5e9, "maint_j": 1e9},
                  "power_curve": {"slope_a": 6.5, "offset_b_w": 60}},
        "macro": {"embodied": {"type": "fraction_of_total", "fraction": 0.3},
                  "lifetime_s": 2e8},
        "overheads": {"s1": 0.12, "x2": 0.03},
    },
    "anchor_40w_1km": {
        "architecture": {"type": "central", "n_small": 20},
        "tx_anchor": {"power_w": 40.0, "radius_m": 1000.0, "carrier_hz": 5.8e9,
                      "freq_exponent": 0.0},
    },
}

TOPOLOGIES = {
    "n1_seed0_nearest": ("1", "0", "nearest-to-center"),
    "n200_seed7_nearest": ("200", "7", "nearest-to-center"),
    "n5000_seed3_gw17": ("5000", "3", "17"),
}


def _run(argv) -> bytes:
    """Standard output of one successful CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0, argv
    return buf.getvalue().encode("utf-8")


def _config_file(tmp_path, name) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CONFIGS[name]))
    return str(path)


def outputs(tmp_path: Path) -> dict:
    """name -> output bytes, for every pinned output."""
    out = {}
    _run(["figures", "--out", str(tmp_path / "figs")])
    for name in FIGURES:
        out[f"figures/{name}.csv"] = (tmp_path / "figs" / f"{name}.csv").read_bytes()
    out["figures/fig5b.json"] = _run(
        ["figures", "--which", "fig5b", "--format", "json", "--stdout"])
    out["sweep/central_fixed_n_small_band.json"] = _run(
        ["sweep", "--config", _config_file(tmp_path, "central_fixed"),
         "--axis", "n_small=0:100:50", "--axis", "band=5.8e9,28e9,60e9",
         "--format", "json", "--stdout"])
    report = tmp_path / "table1.json"
    _run(["verify-table1", "--out", str(report)])
    out["verify-table1.json"] = report.read_bytes()
    for name, doc in CONFIGS.items():
        out[f"eval/{name}.json"] = _run(
            ["eval", "--config", _config_file(tmp_path, name), "--stdout"])
        text = serialize_scenario(load_scenario(json.dumps(doc)))
        out[f"serialize/{name}.json"] = text.encode("utf-8")
    for name, (n, seed, gateway) in TOPOLOGIES.items():
        out[f"topology/{name}.json"] = _run(
            ["topology", "--n", n, "--seed", seed, "--gateway", gateway, "--stdout"])
    return out


def digests(tmp_path: Path) -> dict:
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in outputs(tmp_path).items()}


def _expected() -> dict:
    pairs = (line.split() for line in GOLDEN.read_text().splitlines() if line.strip())
    return {name: digest for digest, name in pairs}


def test_outputs_match_golden_digests(tmp_path):
    got = digests(tmp_path)
    want = _expected()
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"outputs changed: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in digests(Path(tmp)).items():
            print(f"{digest}  {name}")

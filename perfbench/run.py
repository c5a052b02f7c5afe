"""floodgrid benchmark: seeded inputs, closed-loop CLI runs, checked outputs.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one ``floodgrid.cli.main`` call at a time, each in a fresh
interpreter, until S seconds have passed. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports per-layer self times and counts
from spans recorded around the calls ``floodgrid.cli`` makes into each
module. The last line of standard output is one JSON object. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from child import LAYER_CALLS, ROOT_SPAN  # noqa: E402
from workloads import HEIGHT, WIDTH, WORKLOADS, generate  # noqa: E402

DIGESTS = HERE / "digests.json"
WORK = HERE / ".work"
TRACES = HERE / ".traces"
SETUP_SAMPLES = 11
# Every run ends well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0

SPAN_METRICS = sorted(set(LAYER_CALLS.values()) | {"cli.self"})
COUNT_METRICS = {
    "overlay.cells_tested": "count", "overlay.attributions": "count",
    "overlay.hit_ratio": "ratio", "scenario.flooded_cells": "count",
    "eda.records_kept": "count", "cli.output_mb": "MB",
}


def fmt_slr(x: float) -> str:
    """How the CLI names flood_<slr>.geojson: shortest repr, no trailing .0."""
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def child_env(threads: str | None) -> dict:
    """Caller's environment, importing floodgrid from this checkout's src/."""
    env = {k: v for k, v in os.environ.items() if k not in ("FLOODGRID_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        env["FLOODGRID_THREADS"] = threads
    return env


def wait_for(cmd: list[str], timeout: float, **kwargs) -> int | str:
    """Run ``cmd`` to completion; kill it after ``timeout`` seconds.

    ``subprocess.run(timeout=...)`` polls with sleeps of up to 50 ms, which
    would quantize the set-up times; a blocking wait with a watchdog does not.
    """
    proc = subprocess.Popen(cmd, **kwargs)
    fired = threading.Event()

    def kill():
        fired.set()
        proc.kill()

    watchdog = threading.Timer(timeout, kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    return "timeout" if fired.is_set() else code


def measure_setup(cwd: Path) -> list[float]:
    """Wall seconds for a fresh interpreter to import floodgrid.cli."""
    cmd = [sys.executable, "-c", "import floodgrid.cli"]
    times = []
    for k in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        code = wait_for(cmd, 60, cwd=cwd, env=child_env(None),
                        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"importing floodgrid.cli failed with exit code {code}")
        if k:  # the first import warms the page cache and is dropped
            times.append(time.perf_counter() - t0)
    return times


def run_sample(work: Path, argv: list[str], mode: str, k: int, timeout: float) -> dict:
    """One CLI call in a fresh process; returns its result and output digests."""
    out = work / f"out{k}"
    spec = {"src": str(SRC), "cwd": str(work), "mode": "plain" if mode == "threads2" else mode,
            "argv": [a.replace("{out}", out.name) for a in argv],
            "result": str(work / f"result{k}.json")}
    (work / f"spec{k}.json").write_text(json.dumps(spec))
    with open(work / f"stderr{k}.txt", "w") as err:
        exit_code = wait_for([sys.executable, str(HERE / "child.py"), str(work / f"spec{k}.json")],
                             timeout, cwd=work, env=child_env("2" if mode == "threads2" else None),
                             stdout=subprocess.DEVNULL, stderr=err)
    res = {"mode": mode, "exit": exit_code, "digests": {}, "sizes": {}}
    if exit_code == 0:
        res.update(json.loads(Path(spec["result"]).read_text()))
    if out.is_dir():
        for p in sorted(out.iterdir()):
            data = p.read_bytes()
            res["digests"][p.name] = hashlib.sha256(data).hexdigest()
            res["sizes"][p.name] = len(data)
    if k == 0 and out.is_dir():
        shutil.copytree(out, work / "reference")
    shutil.rmtree(out, ignore_errors=True)
    if res["exit"] != 0 or res.get("rc") != 0:
        tail = (work / f"stderr{k}.txt").read_text()[-2000:]
        print(f"sample {k} ({mode}) failed: exit {res['exit']}, rc {res.get('rc')}\n{tail}")
    return res


def check_assess(ref: Path, w, info: dict) -> tuple[list[str], dict]:
    """Output checks on one assess output dir; returns (problems, counts)."""
    problems = []
    want = {"report.csv", "cells.csv"} | {f"flood_{fmt_slr(s)}.geojson" for s in w.slr}
    have = {p.name for p in ref.iterdir()} if ref.is_dir() else set()
    if have != want:
        return [f"output files {sorted(have)} != {sorted(want)}"], {}

    rows = (ref / "cells.csv").read_text().splitlines()[1:]
    exposed = sum(float(r.split(",")[4]) for r in rows)
    total = info["total_assessment"]
    if abs(exposed - total) > 0.005 * len(rows) + 1e-9 * total:
        problems.append(f"cells.csv exposed value {exposed:.2f} != total assessment {total:.2f}")

    flooded = [len(json.loads((ref / f"flood_{fmt_slr(s)}.geojson").read_text())["features"])
               for s in w.slr]
    if any(b < a for a, b in zip(flooded, flooded[1:])):
        problems.append(f"flooded cell counts decrease with rising sea level: {flooded}")
    report = (ref / "report.csv").read_text().splitlines()[1:]
    if len(report) != len(w.slr):
        problems.append(f"report.csv has {len(report)} scenario rows, expected {len(w.slr)}")
    elif w.area_basis == "cell":
        areas = [float(r.split(",")[2]) for r in report]
        if areas != [n * w.cell_size ** 2 for n in flooded]:
            problems.append(f"cell-basis flooded areas {areas} != flooded cells x cell area")
    return problems, {"scenario.flooded_cells": sum(flooded)}


def check_eda(ref: Path, info: dict) -> tuple[list[str], dict]:
    want = {"eda_report.json", "scatter.csv"}
    have = {p.name for p in ref.iterdir()} if ref.is_dir() else set()
    if have != want:
        return [f"output files {sorted(have)} != {sorted(want)}"], {}
    counts = json.loads((ref / "eda_report.json").read_text())["counts"]
    kept = len((ref / "scatter.csv").read_text().splitlines()) - 1
    problems = []
    for stage, n in info["funnel"].items():
        if counts.get(stage) != n:
            problems.append(f"eda funnel {stage}: {counts.get(stage)} != recount {n}")
    if counts.get("outlier_removal") != kept:
        problems.append(f"scatter.csv has {kept} rows, report says {counts.get('outlier_removal')}")
    return problems, {"eda.records_kept": kept}


def cells_tested(w, features) -> int:
    """Cells inside each parcel member's bbox, clamped to the grid, as apportion tests them."""
    s = w.cell_size
    n_cols, n_rows = int(np.ceil(WIDTH / s)), int(np.ceil(HEIGHT / s))
    total = 0
    for f in features:
        geom = f["geometry"]
        polys = [geom["coordinates"]] if geom["type"] == "Polygon" else geom["coordinates"]
        for rings in polys:
            pts = np.asarray(rings[0])
            j_lo, i_lo = (max(0, int(np.floor(v / s))) for v in pts.min(axis=0))
            j_hi = min(n_cols - 1, int(np.floor(pts[:, 0].max() / s)))
            i_hi = min(n_rows - 1, int(np.floor(pts[:, 1].max() / s)))
            total += (i_hi - i_lo + 1) * (j_hi - j_lo + 1)
    return total


def self_times(spans: list) -> dict[str, float]:
    """Per-name self time: span duration minus the time its children cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        key = "cli.self" if name == ROOT_SPAN else name
        out[key] = out.get(key, 0.0) + (end - start - inner)
    return out


def mode_of(k: int, trace: bool) -> str:
    """Mode of the k-th call in a run.

    Untraced runs time calls with FLOODGRID_THREADS unset; their second call
    sets it to 2 only to check that threads leave the output bytes alone.
    Giving every timed call to one mode keeps the medians steadier. Traced
    runs rotate plain, traced and two-thread calls.
    """
    if trace:
        return ("plain", "spans", "threads2")[k % 3]
    return "threads2" if k == 1 else "plain"


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's output digests and counts in digests.json")
    args = ap.parse_args(argv)
    if not (SRC / "floodgrid" / "cli.py").is_file():
        print(f"error: no floodgrid sources under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        info = generate(w, args.seed, work)
        setup = measure_setup(work)
        samples: list[dict] = []
        deadline = time.perf_counter() + args.seconds
        while len(samples) < 3 or time.perf_counter() < deadline:
            left = RUN_BUDGET_S - (time.perf_counter() - started)
            if left <= 0:
                break
            samples.append(run_sample(work, info["argv"], mode_of(len(samples), args.trace),
                                      len(samples), left))
        if args.trace:
            left = max(1.0, RUN_BUDGET_S - (time.perf_counter() - started))
            samples.append(run_sample(work, info["argv"], "memory", len(samples), left))
        problems, counts = (check_eda(work / "reference", info) if w.command == "eda"
                            else check_assess(work / "reference", w, info))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ref_digests = samples[0]["digests"]
    counts["cli.output_mb"] = sum(samples[0]["sizes"].values()) / 1e6
    if w.command == "assess":
        counts["overlay.cells_tested"] = cells_tested(w, info["features"])
    attributions = {s["counts"].get("overlay.attributions") for s in samples if "counts" in s}
    if len(attributions) > 1:
        problems.append(f"overlay.attributions differs between runs: {sorted(attributions)}")
    if attributions - {None}:
        counts["overlay.attributions"] = attributions.pop()

    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    entry = recorded.get(w.name, {}).get(str(args.seed))
    if entry is not None:
        if entry["outputs"] != ref_digests:
            problems.append(f"output digests differ from those recorded for seed {args.seed}")
        for name, value in entry["counts"].items():
            if name in counts and counts[name] != value:
                problems.append(f"{name} = {counts[name]}, recorded {value} for seed {args.seed}")

    failed = 0
    for s in samples:
        bad = s["exit"] != 0 or s.get("rc") != 0 or s["digests"] != ref_digests
        failed += bool(bad or problems)
    for p in problems:
        print(f"check failed: {p}")

    if args.record and not failed and not problems:
        recorded.setdefault(w.name, {})[str(args.seed)] = {
            "outputs": ref_digests,
            "counts": {k: v for k, v in counts.items() if k != "overlay.hit_ratio"},
        }
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    by_mode = {m: [s for s in samples if s["mode"] == m and "run_s" in s]
               for m in ("plain", "threads2", "spans", "memory")}
    plain_run = median(s["run_s"] for s in by_mode["plain"])
    threads2_run = median(s["run_s"] for s in by_mode["threads2"])
    print(f"workload {w.name} seed {args.seed}: inputs {json.dumps(info['sizes'])}")
    print(f"samples: " + ", ".join(f"{m}={len(v)}" for m, v in by_mode.items() if v)
          + f"; setup samples={len(setup)}")

    if not args.trace:
        print(f"FLOODGRID_THREADS=2 check call: {threads2_run:.4f} s (not a metric here)")
        metrics = {
            "run_s": (plain_run, "s"),
            "setup_s": (median(setup), "s"),
            "peak_rss_mb": (median(s["maxrss_mb"] for s in by_mode["plain"]), "MB"),
        }
    else:
        per_sample = [self_times(s["spans"]) for s in by_mode["spans"]]
        metrics = {f"{n}.s": (median(t.get(n, 0.0) for t in per_sample), "s")
                   for n in SPAN_METRICS}
        parse_s = metrics["geodata.parse_ascii_grid.s"][0]
        dem_mb = info["sizes"].get("dem_bytes", 0) / 1e6
        metrics["geodata.parse_ascii_grid.mb_per_s"] = (dem_mb / parse_s if parse_s else 0.0,
                                                        "MB/s")
        peaks = by_mode["memory"][0]["peak_mb"] if by_mode["memory"] else {}
        for name in ("geodata.parse_ascii_grid", "terrain.zonal_mean_elevation"):
            metrics[f"{name}.peak_mb"] = (peaks.get(name, 0.0), "MB")
        if counts.get("overlay.cells_tested"):
            counts["overlay.hit_ratio"] = (counts.get("overlay.attributions", 0)
                                           / counts["overlay.cells_tested"])
        for name, unit in COUNT_METRICS.items():
            metrics[name] = (counts.get(name, 0), unit)
        traced_run = median(s["run_s"] for s in by_mode["spans"])
        metrics["trace.overhead_s"] = (traced_run - plain_run, "s")
        metrics["run_s.threads2"] = (threads2_run, "s")

        absent = sorted({a for s in by_mode["spans"] for a in s["absent"]})
        if absent:
            print("absent (reported as 0): " + ", ".join(absent))
        print(f"self time per layer, median of {len(per_sample)} traced runs "
              f"(traced run_s {traced_run:.4f} s):")
        for n in sorted(SPAN_METRICS, key=lambda n: -metrics[f"{n}.s"][0]):
            v = metrics[f"{n}.s"][0]
            if v:
                print(f"  {n:34s} {v:9.4f} s  {100 * v / traced_run:5.1f}%")
        TRACES.mkdir(exist_ok=True)
        (TRACES / f"{w.name}-seed{args.seed}.json").write_text(json.dumps(
            [{"run_s": s["run_s"], "spans": s["spans"]} for s in by_mode["spans"]]))

    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"error_rate = {failed}/{len(samples)}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

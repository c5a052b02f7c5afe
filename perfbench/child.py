"""Run one ``floodgrid.cli.main`` call in this fresh interpreter.

Usage: python child.py SPEC.json

SPEC holds ``src`` (directory to import floodgrid from), ``cwd``, ``argv``,
``mode`` and ``result`` (path of the JSON result to write). Modes:

- ``plain``: no instrumentation.
- ``spans``: the layer functions that ``floodgrid.cli`` imports are replaced,
  in the ``cli`` module namespace only, by wrappers that record a span
  (name, start, end, parent) per call. ``cli.main`` itself runs unchanged.
- ``memory``: the DEM parse and zonal mean run under ``tracemalloc`` and
  report the peak traced bytes inside the call. Its timings are not used,
  because tracemalloc slows every allocation.
"""

import json
import os
import sys
import time

# Names bound in floodgrid.cli, mapped to the span name they are reported as.
LAYER_CALLS = {
    "parse_ascii_grid": "geodata.parse_ascii_grid",
    "parse_parcels": "geodata.parse_parcels",
    "parse_bfe_zones": "geodata.parse_bfe_zones",
    "parse_damage_curve": "geodata.parse_damage_curve",
    "apportion_many": "overlay.apportion_many",
    "zonal_mean_elevation": "terrain.zonal_mean_elevation",
    "assign_bfe": "terrain.assign_bfe",
    "build_cell_states": "terrain.build_cell_states",
    "sweep": "scenario.sweep",
    "write_report": "geodata.write_report",
    "cell_states_csv": "terrain.cell_states_csv",
    "flooded_cells_geojson": "scenario.flooded_cells_geojson",
    "_write_outputs": "cli.write",
    "read_attribute_table": "eda.read_attribute_table",
    "run_eda": "eda.run_eda",
    "scatter_export": "eda.scatter_export",
}
MEMORY_CALLS = ("parse_ascii_grid", "zonal_mean_elevation")
ROOT_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent index]."""

    def __init__(self):
        self.spans = [[ROOT_SPAN, 0.0, 0.0, None]]
        self.stack = [0]
        self.counts = {}

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, time.perf_counter(), 0.0, self.stack[-1]]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[2] = time.perf_counter()
            if name == "overlay.apportion_many" and hasattr(result, "__len__"):
                self.counts["overlay.attributions"] = len(result)
            return result
        return traced


def memory_wrap(name, fn, peaks):
    import tracemalloc

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks[name] = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
    return measured


def peak_rss_mb() -> float:
    """High-water RSS of this process image in MB (10^6 bytes).

    ``ru_maxrss`` would do, except that Linux carries the parent's high-water
    mark across a vfork-and-exec into the child's, so a large parent would
    mask the CLI's own peak. ``VmHWM`` covers this image only.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    os.chdir(spec["cwd"])
    from floodgrid import cli

    origin = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if origin != os.path.abspath(spec["src"]):
        raise SystemExit(f"floodgrid imported from {origin}, expected {spec['src']}")

    tracer, peaks, absent = None, {}, []
    if spec["mode"] == "spans":
        tracer = Tracer()
        for attr, name in LAYER_CALLS.items():
            fn = getattr(cli, attr, None)
            if fn is None:
                absent.append(name)
            else:
                setattr(cli, attr, tracer.wrap(name, fn))
    elif spec["mode"] == "memory":
        for attr in MEMORY_CALLS:
            fn = getattr(cli, attr, None)
            if fn is not None:
                setattr(cli, attr, memory_wrap(LAYER_CALLS[attr], fn, peaks))

    t0 = time.perf_counter()
    rc = cli.main(spec["argv"])
    t1 = time.perf_counter()
    result = {
        "rc": rc,
        "run_s": t1 - t0,
        "maxrss_mb": peak_rss_mb(),
        "peak_mb": peaks,
        "absent": absent,
    }
    if tracer is not None:
        tracer.spans[0][1:3] = [t0, t1]
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

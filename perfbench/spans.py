"""Outside-in span tracing of thermocc for the benchmark's traced runs.

Each hook wraps one public thermocc function at the places its callers
look it up (a module attribute such as `thermocc.synth.write_frame`),
so the program itself is not edited. A timed hook records calls, total
time and self time (its span minus the spans of hooked functions it
called on the same thread). A counted hook records calls only: `iou`
and `to_pixel_box` run about 4x10^5 times per crowded eval. Even
counting them in the span table added 1.6 s to a 2.2 s eval; an atomic
counter adds 0.2-0.5 s.

A lookup site that no longer resolves is reported as missing. A hook
whose sites are all missing reports no metrics at all, so a renamed
function never shows up as zero calls.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from contextlib import contextmanager

# (metric prefix, lookup sites, timed). Sites under the bare `thermocc`
# package are the exports the benchmark itself calls.
HOOKS = (
    ("cli.run", ("thermocc.cli.run",), True),
    ("synth.generate_dataset",
     ("thermocc.cli.generate_dataset", "thermocc.generate_dataset"), True),
    ("synth.plan_dataset", ("thermocc.synth.plan_dataset",), True),
    ("synth.render_frame", ("thermocc.synth.render_frame",), True),
    ("frame.encode_frame", ("thermocc.frame.encode_frame",), True),
    ("frame.write_frame", ("thermocc.synth.write_frame",), True),
    ("frame.read_frame", ("thermocc.detect.read_frame", "thermocc.read_frame"),
     True),
    ("frame.decode_frame", ("thermocc.frame.decode_frame",), True),
    ("frame.celsius_from_raw", ("thermocc.frame.celsius_from_raw",), True),
    ("annot.serialize_labels",
     ("thermocc.synth.serialize_labels", "thermocc.serialize_labels"), True),
    ("annot.serialize_predictions",
     ("thermocc.cli.serialize_predictions", "thermocc.serialize_predictions"),
     True),
    ("annot.parse_labels", ("thermocc.metrics.parse_labels",), True),
    ("annot.parse_predictions", ("thermocc.metrics.parse_predictions",), True),
    ("annot.to_pixel_box",
     ("thermocc.metrics.to_pixel_box", "thermocc.detect.to_pixel_box"), False),
    ("annot.from_pixel_box", ("thermocc.detect.from_pixel_box",), False),
    ("manifest.read_manifest",
     ("thermocc.cli.read_manifest", "thermocc.read_manifest"), True),
    ("manifest.write_manifest",
     ("thermocc.cli.write_manifest", "thermocc.synth.write_manifest",
      "thermocc.write_manifest"), True),
    ("manifest.resolve",
     ("thermocc.cli.resolve", "thermocc.metrics.resolve",
      "thermocc.detect.resolve"), True),
    ("split.stratified_split", ("thermocc.cli.stratified_split",), True),
    ("split.verify_ratio", ("thermocc.cli.verify_ratio",), True),
    ("detect.detect_manifest", ("thermocc.cli.detect_manifest",), True),
    ("detect.detect_blobs",
     ("thermocc.detect.detect_blobs", "thermocc.detect_blobs"), True),
    ("detect.score_blob", ("thermocc.detect.score_blob",), False),
    ("detect.nms", ("thermocc.detect.nms",), True),
    ("metrics.evaluate", ("thermocc.cli.evaluate",), True),
    ("metrics.load_samples",
     ("thermocc.cli.load_samples", "thermocc.metrics.load_samples"), True),
    ("metrics.match_detections", ("thermocc.metrics.match_detections",), True),
    ("metrics.pr_curve", ("thermocc.cli.pr_curve", "thermocc.metrics.pr_curve"),
     True),
    ("metrics.map_range", ("thermocc.metrics.map_range",), True),
    ("metrics.average_precision", ("thermocc.metrics.average_precision",),
     True),
    ("metrics.iou", ("thermocc.metrics.iou", "thermocc.detect.iou"), False),
    ("occupancy.frame_occupancy",
     ("thermocc.occupancy.frame_occupancy", "thermocc.frame_occupancy"), True),
    ("occupancy.detection_timeline", ("thermocc.cli.detection_timeline",),
     True),
    ("occupancy.manifest_timeline", ("thermocc.cli.manifest_timeline",), True),
    ("occupancy.simulate_control", ("thermocc.cli.simulate_control",), True),
    ("occupancy.write_timeline_csv", ("thermocc.cli.write_timeline_csv",),
     True),
    ("occupancy.write_schedule_csv", ("thermocc.cli.write_schedule_csv",),
     True),
    ("plots.emit_plots", ("thermocc.cli.emit_plots",), True),
)


def hook_metric_names() -> list[str]:
    """Every per-layer metric name the hooks can produce, in table order."""
    names = []
    for prefix, _, timed in HOOKS:
        names.append(f"{prefix}.calls")
        if timed:
            names += [f"{prefix}.total_s", f"{prefix}.self_s"]
    return names


class Tracer:
    """Per-thread span statistics: name -> [calls, total_s, self_s].

    Each thread keeps its own table and span stack, so the hot path
    takes no lock. Self time subtracts only child spans on the same
    thread: a stage that hands work to a pool keeps its waiting time.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._counters: list[tuple] = []
        self._counted: dict[str, int] = {}

    def _state(self):
        local = self._local
        if not hasattr(local, "table"):
            local.table = {}
            local.stack = []
            with self._lock:
                self._tables.append(local.table)
        return local

    def timed(self, name: str, fn):
        perf = time.perf_counter
        state = self._state

        def span(*args, **kwargs):
            local = state()
            stack = local.stack
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                rec = local.table.get(name)
                if rec is None:
                    rec = local.table[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - child
        return span

    def counted(self, name: str, fn):
        # next() on an itertools.count is one atomic C call: the cheapest
        # thread-safe counter, read back by harvest() once unhooked.
        counter = itertools.count()
        with self._lock:
            self._counters.append((name, counter))

        def count(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)
        return count

    def harvest(self) -> None:
        """Fold the counted hooks' calls into the totals; call once the
        counted wrappers are no longer installed."""
        with self._lock:
            for name, counter in self._counters:
                self._counted[name] = self._counted.get(name, 0) + next(counter)
            self._counters.clear()

    def totals(self) -> dict[str, list]:
        """Merge every thread's table; call only while no span is open."""
        merged: dict[str, list] = {name: [calls, 0.0, 0.0]
                                   for name, calls in self._counted.items()}
        with self._lock:
            for table in self._tables:
                for name, (calls, total, self_s) in table.items():
                    rec = merged.setdefault(name, [0, 0.0, 0.0])
                    rec[0] += calls
                    rec[1] += total
                    rec[2] += self_s
        return merged


def _resolve(site: str):
    module_name, attr = site.rsplit(".", 1)
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, attr
    return (module, attr) if hasattr(module, attr) else (None, attr)


@contextmanager
def hooked(tracer: Tracer):
    """Wrap every resolvable hook site for the duration of the block.

    Yields the list of sites that did not resolve. The original
    functions are put back on exit, even if the block raised.
    """
    saved = []
    missing = []
    try:
        for prefix, sites, timed in HOOKS:
            for site in sites:
                module, attr = _resolve(site)
                if module is None:
                    missing.append(site)
                    continue
                original = getattr(module, attr)
                wrap = tracer.timed if timed else tracer.counted
                setattr(module, attr, wrap(prefix, original))
                saved.append((module, attr, original))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
        tracer.harvest()


def _missing_hooks(missing_sites: list[str]) -> list[str]:
    """Hook prefixes whose every lookup site is missing."""
    gone = set(missing_sites)
    return [prefix for prefix, sites, _ in HOOKS
            if all(site in gone for site in sites)]


def layer_metrics(totals: dict[str, list], missing_sites: list[str],
                  divisor: int, base: dict[str, list]) -> dict[str, float]:
    """Per-layer values: base (set-up) plus totals per traced repeat.

    totals holds the sums over `divisor` traced repeats, with base
    already included in them; hooks missing entirely are left out.
    """
    absent = set(_missing_hooks(missing_sites))
    out: dict[str, float] = {}
    for prefix, _, timed in HOOKS:
        if prefix in absent:
            continue
        b = base.get(prefix, [0, 0.0, 0.0])
        t = totals.get(prefix, [0, 0.0, 0.0])
        per = [b[k] + (t[k] - b[k]) / divisor for k in range(3)]
        calls = per[0]
        out[f"{prefix}.calls"] = int(calls) if calls == int(calls) else calls
        if timed:
            out[f"{prefix}.total_s"] = per[1]
            out[f"{prefix}.self_s"] = per[2]
    return out

"""Timing spans installed from outside the package, and per-layer metrics.

Each wrapper replaces a function on the module object where its caller looks
it up at call time.  Wrapping only the definition would miss callers that
bound the name at import (``from .transforms import to_unit_square``), so
every such binding is listed in ``WRAPS`` on its own.

Spans are kept in memory as ``(layer, start, end, parent, op)`` tuples and
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children; the time the tracer spends in its own
bookkeeping after a call is charged to neither the call nor its parent.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from ptdep.errors import DegenerateSample


def _kernel_counts(tracer, args, out, exc):
    totals = tracer.totals
    if out is None:
        return
    n = len(args[0])
    levels, truncated = out
    totals["kernels.points"] += n
    totals["kernels.point_levels"] += n * len(levels)
    totals["kernels.truncated"] += int(bool(truncated))


def _map_counts(tracer, args, out, exc):
    totals = tracer.totals
    sample = args[0]
    totals["transforms.points_mapped"] += sample.n
    for margin in (sample.x, sample.y):
        totals["transforms.margins_mapped"] += 1
        digest = hashlib.blake2b(np.sort(margin).tobytes(), digest_size=16).digest()
        if digest not in tracer.op_digests:
            tracer.op_digests.add(digest)
            totals["transforms.margins_distinct"] += 1


def _candidate_counts(tracer, args, out, exc):
    tracer.totals["ebayes.candidates"] += 1
    if isinstance(exc, DegenerateSample):
        tracer.totals["ebayes.degenerate_skips"] += 1


def _perm_counts(tracer, args, out, exc):
    if out is not None:
        tracer.totals["simulate.perm_calls"] += len(out.null_stats)


def _pair_counts(tracer, args, out, exc):
    if out is not None:
        tracer.totals["diffscan.pairs"] += len(out)


# (module, attribute, layer, call counter or None, extra counting hook or None)
WRAPS = (
    ("ptdep.kernels", "logbf_levels", "kernels", "kernels.calls", _kernel_counts),
    ("ptdep.engine", "to_unit_square", "transforms.map", "transforms.map_calls", _map_counts),
    ("ptdep.ebayes", "shift_wrap", "transforms.wrap", "transforms.wrap_calls", None),
    ("ptdep.engine", "_evaluate", "engine", "engine.calls", None),
    ("ptdep.ebayes", "_evaluate", "engine", "engine.calls", _candidate_counts),
    ("ptdep.engine", "test_dependence", "engine", None, None),
    ("ptdep.diffscan", "test_dependence", "engine", None, None),
    ("ptdep.simulate", "test_dependence", "engine", None, None),
    ("ptdep.ebayes", "ebayes_test", "ebayes", "ebayes.tests", None),
    ("ptdep.diffscan", "ebayes_test", "ebayes", "ebayes.tests", None),
    ("ptdep.simulate", "ebayes_test", "ebayes", "ebayes.tests", None),
    ("ptdep.cli", "ebayes_test", "ebayes", "ebayes.tests", None),
    ("ptdep.simulate", "permutation_null", "simulate", None, _perm_counts),
    ("ptdep.diffscan", "pairwise_scan", "diffscan", None, _pair_counts),
    ("ptdep.cli", "pairwise_scan", "diffscan", None, _pair_counts),
    ("ptdep.cli", "read_matrix", "cli.parse", None, None),
    ("ptdep.cli", "write_result", "cli.serialise", None, None),
    ("ptdep.cli", "pair_to_row", "cli.serialise", None, None),
    ("ptdep.cli", "run", "cli", None, None),
)


class Tracer:
    """Collects spans and counters for the calls routed through its wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.op = -1
        self.op_digests: set[bytes] = set()
        self._open: list[list] = []  # [span index, child seconds] per open span

    def begin_op(self) -> None:
        """Start a new user-level op; distinct margins are counted per op."""
        self.op += 1
        self.op_digests = set()

    def install(self) -> None:
        """Wrap every listed binding whose module is loaded; note absent ones."""
        for modname, attr, layer, counter, hook in WRAPS:
            module = sys.modules.get(modname)
            if module is None:
                continue
            if not hasattr(module, attr):
                self.missing.append(f"{modname}.{attr}")
                continue
            setattr(module, attr, self._wrap(getattr(module, attr), layer, counter, hook))

    def _wrap(self, fn, layer, counter, hook):
        totals = self.totals

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1][0] if self._open else -1
            self.spans.append(None)
            frame = [index, 0.0]
            self._open.append(frame)
            out = exc = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                self._open.pop()
                duration = end - start
                self.spans[index] = (layer, start, end, parent, self.op)
                totals[layer + ".s"] += duration
                totals[layer + ".self_s"] += duration - frame[1]
                if counter:
                    totals[counter] += 1
                if hook:
                    hook(self, args, out, exc)
                if self._open:
                    self._open[-1][1] += perf_counter() - start

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def dump(self, path) -> None:
        """Write totals, missing bindings and every span as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"totals": dict(self.totals), "missing": self.missing,
                       "spans": self.spans}, fh)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(totals) -> dict[str, float]:
    """Per-layer metrics from additive totals (summed over traced ops)."""
    t = defaultdict(float, totals)
    return {
        "kernels.calls": t["kernels.calls"],
        "kernels.us_per_call": _ratio(t["kernels.s"], t["kernels.calls"], 1e6),
        "kernels.s": t["kernels.s"],
        "kernels.points": t["kernels.points"],
        "kernels.ns_per_point": _ratio(t["kernels.s"], t["kernels.points"], 1e9),
        "kernels.point_levels": t["kernels.point_levels"],
        "kernels.truncated": t["kernels.truncated"],
        "transforms.map_calls": t["transforms.map_calls"],
        "transforms.map_s": t["transforms.map.s"],
        "transforms.points_mapped": t["transforms.points_mapped"],
        "transforms.map_useful_ratio": _ratio(t["transforms.margins_distinct"],
                                              t["transforms.margins_mapped"]),
        "transforms.wrap_calls": t["transforms.wrap_calls"],
        "transforms.wrap_s": t["transforms.wrap.s"],
        "engine.calls": t["engine.calls"],
        "engine.self_s": t["engine.self_s"],
        "simulate.perm_calls": t["simulate.perm_calls"],
        "simulate.self_s": t["simulate.self_s"],
        "ebayes.tests": t["ebayes.tests"],
        "ebayes.candidates": t["ebayes.candidates"],
        "ebayes.degenerate_skips": t["ebayes.degenerate_skips"],
        "ebayes.self_s": t["ebayes.self_s"],
        "diffscan.pairs": t["diffscan.pairs"],
        "diffscan.self_s": t["diffscan.self_s"],
        "cli.parse_s": t["cli.parse.s"],
        "cli.serialise_s": t["cli.serialise.s"],
    }


IMPORT_MARK = "@@perfbench-import@@"


def import_times(python: str, env: dict, cwd) -> dict[str, float]:
    """Seconds to import ``ptdep.cli`` and, within it, ``scipy.special``.

    Read from ``python -X importtime``: the first figure sums the cumulative
    times of the top-level imports that ``import ptdep.cli`` triggers.
    """
    code = f"import sys; sys.stderr.write({IMPORT_MARK!r} + '\\n'); import ptdep.cli"
    proc = subprocess.run([python, "-X", "importtime", "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120, check=True)
    lines = proc.stderr.splitlines()
    lines = lines[lines.index(IMPORT_MARK) + 1:]
    total_us = special_us = 0
    for line in lines:
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1])
        name = parts[2][1:]  # one separator space, then two per nesting level
        if not name.startswith(" "):
            total_us += cumulative
        if name.strip() == "scipy.special":
            special_us = cumulative
    return {"import.cli_s": total_us / 1e6, "import.scipy_special_s": special_us / 1e6}

"""Benchmark of the ptdep package: one workload per run, checked outputs.

    python3 perfbench/run.py --workload calib --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from its ``src`` directory, nothing is installed.  With
``--trace 0`` the last line of standard output is a JSON object carrying
every end-to-end metric listed in ``BENCHMARK.json``; with ``--trace 1`` it
carries every per-layer metric.  Lines before it, prefixed ``#``, report the
environment, the op count, ``fail_ratio`` and the latency tail.  A record of
the run, with spans when tracing, is written under ``.perfbench_work/``.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("calib", "scan", "ebayes", "large_n")
SETUP_PROBES = {"scan": 3}  # fresh interpreters timed per run; others use 5
TRACED_BLOCKS = {"calib": 3, "scan": 3, "ebayes": 12, "large_n": 3}
IMPORT_PROBES = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Op:
    block: int
    index: int
    seconds: float
    out: object
    problems: list[str] = field(default_factory=list)
    items: int = 0
    cal: int = 0  # index of the calibration just before the op
    speed: float = 1.0  # reference seconds per wall second while it ran

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.speed


def run_ops(op, pool, calibrate, *, seconds=None, blocks=None, tracer=None) -> list[Op]:
    """Run whole passes over the pool until ``seconds`` have passed or ``blocks`` are done.

    ``calibrate`` runs first, then after at least ``INTERVAL_S`` of op time
    and at each block's end.  Each op's speed comes from the calibrations
    around it (``Calibration.speed``).
    """
    ops: list[Op] = []
    cals = [calibrate()]
    start = perf_counter()
    block = 0
    since = 0.0
    while True:
        for index, item in enumerate(pool):
            if tracer is not None:
                tracer.begin_op()
            t0 = perf_counter()
            try:
                out, problems = op(item), []
            except Exception as exc:  # a failed op is counted, not fatal
                out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
            ops.append(Op(block, index, perf_counter() - t0, out, problems, cal=len(cals) - 1))
            since += ops[-1].seconds
            if index == len(pool) - 1 or since >= calibrate.INTERVAL_S:
                cals.append(calibrate())
                since = 0.0
        block += 1
        if (blocks is not None and block >= blocks) or (
                blocks is None and perf_counter() - start >= seconds):
            break
    for o in ops:
        o.speed = calibrate.speed(cals, o.cal)
    calibrate.history.append(cals)
    return ops


def evaluate(wl, pool, ops: list[Op]) -> None:
    """Check every output; repeats of an identical output share the first verdict."""
    first: dict[int, tuple] = {}
    for op in ops:
        if op.problems:
            continue
        fingerprint = wl.fingerprint(op.out)
        if op.index not in first:
            first[op.index] = (fingerprint, wl.check(op.index, pool[op.index], op.out))
            op.problems = first[op.index][1]
        elif fingerprint == first[op.index][0]:
            op.problems = first[op.index][1]
        else:
            op.problems = wl.check(op.index, pool[op.index], op.out) + [
                "output differs from an earlier op on the same input"]
    for op in ops:
        op.items = 0 if op.problems else wl.items(op.out)


def block_rate(ops: list[Op], reference: bool = True) -> float:
    """Median over blocks of items completed per (reference or wall) second of op time."""
    blocks: dict[int, list] = defaultdict(lambda: [0, 0.0])
    for op in ops:
        blocks[op.block][0] += op.items
        blocks[op.block][1] += op.ref_seconds if reference else op.seconds
    return statistics.median(items / secs for items, secs in blocks.values())


def latency_tail(ops: list[Op]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten ops beyond it, and its latency."""
    lat = sorted(op.ref_seconds for op in ops)
    for p in TAIL_PERCENTILES:
        if len(lat) * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            return p, lat[math.ceil(p / 100.0 * len(lat)) - 1]
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def environment(seed: int, cpus: list[int]) -> dict:
    import numpy
    import scipy

    import ptdep.kernels

    backend = getattr(ptdep.kernels, "active_backend", lambda: "unknown")()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(cpus), "pinned_cpu": cpus[0],
            "backend": backend, "commit": commit(), "seed": seed}


def setup_seconds(wl, pool, args, work: Path, env: dict, calibrate):
    """Spawn-to-exit wall and reference seconds of fresh interpreters that import and run one op."""
    import numpy as np

    import workloads

    if args.workload == "scan":
        source = pool[0]
    else:
        source = work / "warm.npz"
        np.savez(source, x=pool[0].x, y=pool[0].y)
    walls, cals = [], [calibrate()]
    for k in range(SETUP_PROBES.get(args.workload, 5)):
        argv = [sys.executable, str(HERE / "probe.py"), args.workload, args.size,
                str(source), str(work / f"probe-{k}.json")]
        err = work / f"probe-{k}.err"
        t0 = perf_counter()
        code = workloads.run_child(argv, env, ROOT, err)
        walls.append(perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {err.read_text()[-2000:]}")
        cals.append(calibrate())
    calibrate.history.append(cals)
    return walls, [wall * calibrate.speed(cals, k) for k, wall in enumerate(walls)]


def traced_phase(wl, pool, args, work: Path, calibrate):
    """Fixed number of blocks with spans on; returns ops, totals, spans, missing bindings."""
    import spans
    import workloads

    blocks = TRACED_BLOCKS[args.workload]
    if args.workload != "scan":
        tracer = spans.Tracer()
        tracer.install()
        ops = run_ops(wl.op, pool, calibrate, blocks=blocks, tracer=tracer)
        return ops, dict(tracer.totals), tracer.spans, tracer.missing

    dumps: list[Path] = []

    def traced_op(matrix):
        dump = work / f"boot-{len(dumps)}.json"
        dumps.append(dump)
        output = wl.next_output()
        argv = [sys.executable, str(HERE / "scan_boot.py"), str(dump),
                *workloads.scan_argv(matrix, output)]
        return wl.spawn(argv, output)

    ops = run_ops(traced_op, pool, calibrate, blocks=blocks)
    totals: dict[str, float] = defaultdict(float)
    all_spans, missing = [], set()
    for dump in dumps:
        if not dump.is_file():
            continue
        data = json.loads(dump.read_text(encoding="utf-8"))
        for key, value in data["totals"].items():
            totals[key] += value
        all_spans.append(data["spans"])
        missing.update(data["missing"])
    return ops, dict(totals), all_spans, sorted(missing)


def measure(args, work: Path) -> dict:
    import spans
    import workloads
    from calibrate import Calibration

    env = child_env()
    if args.workload == "scan":
        wl = workloads.Scan(args.size, sys.executable, env, ROOT, work)
    else:
        wl = workloads.IN_PROCESS[args.workload](args.size)
    pool = wl.inputs(args.seed)
    wl.op(pool[0])  # warm-up, untimed
    calibrate = Calibration(wl.calibration)

    record: dict = {}
    if not args.trace:
        ops = run_ops(wl.op, pool, calibrate, seconds=args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "scan" else resource.RUSAGE_SELF
        peak_kib = resource.getrusage(who).ru_maxrss
        evaluate(wl, pool, ops)
        setup_cal = Calibration("small")
        walls, setup = setup_seconds(wl, pool, args, work, env, setup_cal)
        record.update(setup_walls_s=walls, setup_s=setup, setup_calibrations=setup_cal.history)
        metrics = {
            "items_per_s": block_rate(ops),
            "op_p50_ms": statistics.median(op.ref_seconds for op in ops) * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_kib / 1024.0,
        }
        report_ops = ops
    else:
        untraced = run_ops(wl.op, pool, calibrate, seconds=args.seconds / 2.0)
        traced, totals, span_list, missing = traced_phase(wl, pool, args, work, calibrate)
        ops = untraced + traced
        evaluate(wl, pool, ops)
        imports = [spans.import_times(sys.executable, env, ROOT) for _ in range(IMPORT_PROBES)]
        metrics = spans.layer_metrics(totals)
        for key in imports[0]:
            metrics[key] = statistics.median(sample[key] for sample in imports)
        metrics["trace.overhead_ratio"] = block_rate(traced) / block_rate(untraced)
        record.update(totals=totals, missing=missing, spans=span_list)
        report_ops = untraced
    record["ops"] = [(op.block, op.index, op.seconds, op.speed, op.items, op.problems, op.cal)
                     for op in ops]
    record["calibrations"] = calibrate.history
    return {"ops": ops, "report_ops": report_ops, "metrics": metrics, "record": record}


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark one ptdep workload.")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="'tiny' shrinks every input, for the smoke test only")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ptdep" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'ptdep'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import ptdep

    if Path(ptdep.__file__).resolve().parent != SRC / "ptdep":
        print(f"perfbench: imported ptdep from {ptdep.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # Co-tenants slow each CPU differently, so the ops, the calibrations that
    # scale them and every child process share one CPU.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops, metrics = result["ops"], result["metrics"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    failed = sum(1 for op in ops if op.problems)
    env = environment(args.seed, cpus)

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    timed = result["report_ops"]
    print(f"# ops={len(ops)} failed={failed} fail_ratio={failed / len(ops):g} "
          f"timed_ops={len(timed)}")
    tail = latency_tail(timed)
    print("# reference time: " + (f"op_p{tail[0]:g}_ms={tail[1] * 1e3:.3f}" if tail
                                  else "tail=n/a (fewer than 20 ops)"))
    print(f"# wall time: items_per_s={block_rate(timed, reference=False):.4f} "
          f"op_p50_ms={statistics.median(op.seconds for op in timed) * 1e3:.3f} "
          f"median_speed={statistics.median(op.speed for op in timed):.4f}")
    if result["record"].get("missing"):
        print("# untraced (binding absent): " + ", ".join(result["record"]["missing"]))
    out_metrics = {}
    for m in wanted:
        value = metrics[m["name"]]
        value = int(value) if m["unit"] == "count" else float(value)
        out_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']} = {value} {m['unit']}")
    problems = sorted({p for op in ops for p in op.problems})
    for p in problems[:10]:
        print(f"perfbench: failed check: {p}", file=sys.stderr)

    record = dict(result["record"], env=env, metrics=out_metrics, failed=failed,
                  attempted=len(ops), problems=problems)
    path = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

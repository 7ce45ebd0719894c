"""nls2lab benchmark: times CLI tasks end to end and, in a separate traced
run, the layers under them.

    python3 bench/run.py --workload evolve64 --seed 0 --seconds 30 --trace 0

Run from the repository root.  Each workload is a closed loop with one
client: every op is one ``nls2lab <task>`` run in a fresh process with a
fresh ``--out`` directory, started when the previous op has exited, until
``--seconds`` have passed.  Each op's artifacts go through the correctness
gate in ``workloads.py``; a failed op counts as failed and is never timed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs two traced
ops (spans recorded around every wrapped nls2lab function, see
``tracer.py``), one untraced op for the tracing overhead, and the
microbenchmarks in ``micro.py``, and reports the per-layer metrics.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PER_OP = 2
MIN_OPS = 3
OP_TIMEOUT_S = 150.0
# arrays live at once in the pointwise RK4 substep: u, v, four stage pairs
# and one stage-input pair
RK4_FIELDS = 12


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(".flop"):
        return "flop"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if ".ms" in name or "_ms" in name:
        return "ms"
    if name.endswith("_ratio") or "parallel_eff" in name:
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


@dataclass
class Op:
    wall_s: float
    rss_mb: float
    ok: bool
    reason: str = ""
    steps: int = 0
    summary: bytes = b""
    io_bytes: int = 0


def run_child(argv, out_path: Path, timeout: float):
    """Run argv to completion; return (wall seconds, peak RSS in MB, exit
    code).  The clock covers process start to exit; the peak RSS is the
    child's own, from wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_op(config: dict, cfg_path: Path, op_dir: Path, spans_path: Path | None = None) -> Op:
    op_dir.mkdir(parents=True)
    cli_args = [config["task"]["name"], "--config", str(cfg_path), "--out", str(op_dir / "runs")]
    if spans_path is None:
        argv = [sys.executable, "-m", "nls2lab.cli", *cli_args]
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans_path),
                "--op-id", op_dir.name, "--", *cli_args]
    stdout = op_dir / "stdout.txt"
    wall, rss, rc = run_child(argv, stdout, OP_TIMEOUT_S)
    lines = stdout.read_text().strip().splitlines()
    try:
        reply = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        reply = {}
    if rc != 0 or "run_dir" not in reply:
        err = stdout.with_suffix(".err").read_text().strip().splitlines()
        detail = json.dumps(reply) if reply else (err[-1] if err else "")
        return Op(wall, rss, False, f"exit {rc}: {detail}")
    run_dir = Path(reply["run_dir"])
    try:
        steps = workloads.check_op(config, run_dir)
    except (workloads.CheckFailed, OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        return Op(wall, rss, False, f"check failed: {type(exc).__name__}: {exc}")
    io_bytes = sum(p.stat().st_size for p in run_dir.iterdir())
    return Op(wall, rss, True, steps=steps, summary=(run_dir / "summary.json").read_bytes(),
              io_bytes=io_bytes)


def gate_summaries(ops: list):
    """summary.json must be byte-identical across the ops of one run."""
    first = next((op.summary for op in ops if op.ok), None)
    for op in ops:
        if op.ok and op.summary != first:
            op.ok, op.reason = False, "summary.json differs from the first op's"


def setup_once(workload: str, work: Path) -> float:
    """A fresh interpreter imports the CLI and builds the workload's grid,
    as every CLI run does before its first step."""
    n, half_width = workloads.GRID[workload]
    code = (
        "import nls2lab.cli\n"
        "from nls2lab.spectral import make_grid\n"
        f"g = make_grid(3, {n}, {half_width})\n"
        "g.k2, g.r2, g.dealias_mask\n"
    )
    wall, _, rc = run_child([sys.executable, "-c", code], work / "setup.txt", OP_TIMEOUT_S)
    if rc != 0:
        raise RuntimeError(f"set-up failed with exit code {rc}")
    return wall


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and size.endswith("K"):
            sizes[f"L{level}"] = int(size[:-1]) * 1024
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(workload: str, seed: int) -> dict:
    caches = _cache_sizes()
    n, _ = workloads.GRID[workload]
    sizes = {"field": 16 * n ** 3}
    if workload != "elliptic64":
        sizes["rk4_working_set"] = RK4_FIELDS * sizes["field"]
    working_set = {"grid_n": n}
    for name, size in sizes.items():
        working_set[f"{name}_bytes"] = size
        for level in ("L2", "L3"):
            if level in caches:
                working_set[f"{name}_over_{level}"] = size / caches[level]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "params": workloads.params(workload, seed),
        "working_set": working_set,
    }


def timed_run(workload, config, cfg_path, work: Path, seconds: float):
    # set-up samples are taken between ops, so that they see the same
    # machine load as the ops they are compared with
    setup, ops = [], []
    start = time.perf_counter()

    def next_op_fits():
        # the next op is expected to take as long as the mean so far
        now = time.perf_counter()
        return now + (now - start) / len(ops) <= start + seconds

    while len(ops) < MIN_OPS or next_op_fits():
        setup += [setup_once(workload, work) for _ in range(SETUP_PER_OP)]
        ops.append(run_op(config, cfg_path, work / f"op{len(ops)}"))
    gate_summaries(ops)
    good = [op for op in ops if op.ok]
    op_s = sorted(op.wall_s for op in good)

    def med(values):
        return statistics.median(values) if values else 0.0

    metrics = {
        "op_s": med(op_s),
        "steps_per_s": med([op.steps / op.wall_s for op in good]),
        "setup_s": med(setup),
        "peak_rss_mb": med([op.rss_mb for op in good]),
        "ok_ratio": len(good) / len(ops),
    }
    notes = {
        "op_s": f"median of {len(op_s)} ops {[round(t, 4) for t in op_s]}; " + _tail(op_s),
        "steps_per_s": f"median over ops of steps / op_s; steps per op {sorted({op.steps for op in good})}",
        "setup_s": f"median of {len(setup)}, min {min(setup):.4f}, max {max(setup):.4f}",
        "peak_rss_mb": f"median of {len(good)} ops, max {max((op.rss_mb for op in good), default=0):.1f}",
        "ok_ratio": f"failed_ratio {1 - metrics['ok_ratio']:.4g} ({len(ops) - len(good)} of {len(ops)})",
    }
    for name in metrics:
        print(f"{name:14s} {metrics[name]:12.6g} {unit_of(name):6s} {notes[name]}")
    return ops, metrics, []


def _tail(sorted_values: list) -> str:
    """The highest percentile that has at least 10 samples above it."""
    n = len(sorted_values)
    if n < 11:
        return f"no tail percentile (needs >= 11 ops, have {n})"
    k = n - 10
    return f"p{100.0 * k / n:.1f} {sorted_values[k - 1]:.6g} s"


def traced_run(workload, config, cfg_path, work: Path):
    problems = []
    traced, layers = [], []
    for i in range(2):
        spans_path = work / f"spans{i}.json"
        op = run_op(config, cfg_path, work / f"traced{i}", spans_path)
        traced.append(op)
        if op.ok:
            with open(spans_path) as fh:
                spans = json.load(fh)["spans"]
            layers.append((tracer.layer_metrics(spans), Counter(s[0] for s in spans)))
    plain = run_op(config, cfg_path, work / "untraced")
    ops = traced + [plain]
    gate_summaries(ops)

    micro_out = work / "micro.txt"
    _, _, rc = run_child([sys.executable, str(BENCH / "micro.py")], micro_out, OP_TIMEOUT_S)
    if rc != 0:
        raise RuntimeError(f"microbenchmarks failed with exit code {rc}")
    micro = json.loads(micro_out.read_text().strip().splitlines()[-1])

    metrics = {}
    if len(layers) == 2:
        (first, counts), (second, _) = layers
        metrics.update(first)
        for name in tracer.EXACT_COUNTS:
            if first[name] != second[name]:
                problems.append(f"count {name} differs between traced ops: {first[name]} vs {second[name]}")
        for name in workloads.REQUIRED_SPANS[workload]:
            if counts.get(name, 0) == 0:
                problems.append(f"wrapper coverage: no {name} calls on {workload}")
        metrics["cli.io.bytes"] = traced[0].io_bytes
    metrics.update(micro["metrics"])
    if all(op.ok for op in ops):
        traced_s = statistics.mean(op.wall_s for op in traced)
        metrics["trace.overhead_s"] = traced_s - plain.wall_s
        print(f"tracing overhead: traced op_s {traced_s:.4f} s, untraced op_s {plain.wall_s:.4f} s")
    print("fft_roundtrip_ms_workers1 " + json.dumps(micro["fft_roundtrip_ms_workers1"]))
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit_of(name)}")
    return ops, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nls2lab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nls2lab" / "cli.py").is_file():
        print(f"error: no nls2lab sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config = workloads.make_config(args.workload, args.seed)
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(config, sort_keys=True))
        print("facts " + json.dumps(machine_facts(args.workload, args.seed), sort_keys=True))
        if args.trace:
            ops, metrics, problems = traced_run(args.workload, config, cfg_path, work)
        else:
            ops, metrics, problems = timed_run(args.workload, config, cfg_path, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    failed = [op for op in ops if not op.ok]
    for op in failed:
        print(f"failed op: {op.reason}", file=sys.stderr)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

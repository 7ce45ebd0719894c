"""Traced CLI op: wraps the public functions of every nls2lab module, runs
``nls2lab.cli.main`` once and writes the recorded spans as JSON.

    PYTHONPATH=src python3 bench/tracer.py --spans spans.json --op-id 0 \
        -- <task> --config cfg.json --out runs/

Each wrapped call is one span ``[name, start, end, parent, op_id, attrs]``;
``parent`` is the index of the enclosing span (-1 at the root).  Spans are
kept in memory and written once, after ``main`` returns.  ``layer_metrics``
turns the spans of one op into the per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

class Recorder:
    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name, fn, attrs=None):
        """Span around every call of fn; attrs(args, kwargs, result, exc)
        returns extra fields stored on the span."""
        spans, stack, op_id = self.spans, self._stack, self.op_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, op_id, {}]
            spans.append(span)
            stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                stack.pop()
                span[2] = time.perf_counter()
                if attrs is not None:
                    span[5] = attrs(args, kwargs, result, exc)

        return traced


def _fft_attrs(args, kwargs, result, exc):
    return {"n": int(args[0].size)}


def _evolve_attrs(args, kwargs, result, exc):
    if result is None:
        return {"steps": 0}
    state, cfg = args[0], args[1]
    return {"steps": round((result[2].t - state.t) / cfg.dt)}


def _gs_attrs(args, kwargs, result, exc):
    return {"iterations": result.iterations if result is not None else 0}


def _eigen_attrs(args, kwargs, result, exc):
    if result is not None:
        return {"iterations": result.iterations, "negative": True}
    partial = getattr(exc, "result", None)
    return {"iterations": partial.iterations if partial is not None else 0,
            "negative": False}


def _probe_attrs(args, kwargs, result, exc):
    return {"verdict": result[0].verdict if result is not None else None}


def _counting_cg(cg, recorder):
    """criterion.cg with an iteration callback added and nothing else
    changed; the span carries the iteration count and CG's info flag."""
    last = {}

    def counted(*args, callback=None, **kwargs):
        count = 0

        def counting_callback(xk):
            nonlocal count
            count += 1
            if callback is not None:
                callback(xk)

        out = cg(*args, callback=counting_callback, **kwargs)
        last["iterations"] = count
        return out

    def attrs(args, kwargs, result, exc):
        return {"iterations": last.pop("iterations", 0),
                "info": int(result[1]) if result is not None else -1}

    return recorder.wrap("criterion.cg", counted, attrs)


def install(recorder: Recorder):
    """Patch every binding of each wrapped function.  A name imported with
    ``from .x import y`` is rebound in every nls2lab namespace that holds it."""
    import scipy.fft

    from nls2lab import cli, criterion, dynamics, groundstate, observables, spectral, threshold

    modules = [m for n, m in sys.modules.items() if n == "nls2lab" or n.startswith("nls2lab.")]

    def rebind(original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    for attr in ("fftn", "ifftn"):
        setattr(scipy.fft, attr, recorder.wrap("spectral.fft", getattr(scipy.fft, attr), _fft_attrs))

    functions = [
        (spectral.fh_half_norm, "spectral.fh_half_norm", None),
        (spectral.x_norm, "spectral.x_norm", None),
        (spectral.sobolev_seminorm, "spectral.sobolev_seminorm", None),
        (spectral.write_field, "cli.io", None),
        (spectral.read_field, "cli.io", None),
        (dynamics.write_state, "cli.io", None),
        (dynamics.evolve, "dynamics.evolve", _evolve_attrs),
        (observables.energy, "observables.energy", None),
        (observables.report_all, "observables.report_all", None),
        (groundstate.solve_ground_state, "groundstate.solve", _gs_attrs),
        (criterion.lowest_eigenpair, "criterion.eigen", _eigen_attrs),
        (criterion.scan_theta, "criterion.scan", None),
        (criterion.eigenvalue_bound, "criterion.bounds", None),
        (criterion.energy_sign_bound, "criterion.bounds", None),
        (criterion.large_data_bound, "criterion.bounds", None),
        (threshold.bisect_threshold, "threshold.bisect", None),
        (threshold.run_and_classify, "threshold.probe", _probe_attrs),
        (threshold.classify_run, "threshold.classify", None),
        (cli.build_data, "cli.build_data", None),
        (cli.main, "cli.main", None),
    ]
    for fn, name, attrs in functions:
        rebind(fn, recorder.wrap(name, fn, attrs))
    rebind(criterion.cg, _counting_cg(criterion.cg, recorder))

    series = dynamics.DiagnosticSeries
    series.append = recorder.wrap("dynamics.record", series.append)
    for attr in ("to_csv", "to_json"):
        setattr(series, attr, recorder.wrap("cli.io", getattr(series, attr)))
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="output JSON file")
    parser.add_argument("--op-id", default="0")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    recorder = Recorder(args.op_id)
    cli = install(recorder)
    rc = cli.main(cli_args)
    with open(args.spans, "w") as fh:
        json.dump({"op_id": args.op_id, "spans": recorder.spans}, fh)
    return rc


# ---------------------------------------------------------------------------
# span analysis (runs in the benchmark process; needs no nls2lab import)
# ---------------------------------------------------------------------------

# count metrics that must repeat exactly between two traced ops of one seed
EXACT_COUNTS = (
    "spectral.fft.calls",
    "dynamics.steps",
    "dynamics.record.calls",
    "dynamics.step.fft_calls",
    "dynamics.record.fft_calls",
    "groundstate.iterations",
    "criterion.cg.iterations",
    "criterion.eigen.calls",
    "threshold.probes",
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one op.  ``.s`` metrics are self times (a span's
    duration minus its children's); per-unit ``.ms`` metrics are inclusive."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    children: list = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]
            children[s[3]].append(i)
    self_time = [d - c for d, c in zip(dur, child_time)]

    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def self_s(*names):
        return sum(self_time[i] for name in names for i in idx(name))

    def attr_sum(name, key):
        return sum(spans[i][5].get(key, 0) for i in idx(name))

    def subtree_ffts(i):
        todo, count = [i], 0
        while todo:
            j = todo.pop()
            count += spans[j][0] == "spectral.fft"
            todo.extend(children[j])
        return count

    ffts = idx("spectral.fft")
    sizes = [spans[i][5]["n"] for i in ffts]

    # A record is one DiagnosticSeries.append plus, after the first, the H^1
    # blowup check that evolve makes on the same state (sobolev_seminorm calls
    # directly under evolve).  Everything else under evolve is stepping.
    steps = attr_sum("dynamics.evolve", "steps")
    record_spans, step_ffts, evolve_s = [], 0, 0.0
    for i in idx("dynamics.evolve"):
        evolve_s += dur[i]
        for j in children[i]:
            name = spans[j][0]
            if name in ("dynamics.record", "spectral.sobolev_seminorm"):
                record_spans.append(j)
            elif name == "spectral.fft":
                step_ffts += 1
    record_calls = len(idx("dynamics.record"))
    record_s = sum(dur[j] for j in record_spans)
    record_ffts = sum(subtree_ffts(j) for j in record_spans)

    gs_iters = attr_sum("groundstate.solve", "iterations")
    eig = idx("criterion.eigen")
    cg = idx("criterion.cg")
    cg_iters = attr_sum("criterion.cg", "iterations")
    probes = idx("threshold.probe")

    return {
        "spectral.fft.calls": len(ffts),
        "spectral.fft.s": self_s("spectral.fft"),
        # computed, not measured: one read and one write of complex128 per
        # point, and 5 N log2 N flops per transform
        "spectral.fft.bytes": sum(2 * 16 * m for m in sizes),
        "spectral.fft.flop": sum(5.0 * m * math.log2(m) for m in sizes),
        "dynamics.steps": steps,
        "dynamics.step.ms": 1e3 * _ratio(evolve_s - record_s, steps),
        "dynamics.step.fft_calls": _ratio(step_ffts, steps),
        "dynamics.record.calls": record_calls,
        "dynamics.record.ms": 1e3 * _ratio(record_s, record_calls),
        "dynamics.record.fft_calls": _ratio(record_ffts, record_calls),
        "spectral.fh_half_norm.calls": len(idx("spectral.fh_half_norm")),
        "spectral.fh_half_norm.s": self_s("spectral.fh_half_norm"),
        "spectral.x_norm.s": self_s("spectral.x_norm"),
        "spectral.sobolev_seminorm.s": self_s("spectral.sobolev_seminorm"),
        "observables.energy.calls": len(idx("observables.energy")),
        "observables.energy.s": self_s("observables.energy"),
        "observables.report_all.s": self_s("observables.report_all"),
        "groundstate.iterations": gs_iters,
        "groundstate.solve.s": self_s("groundstate.solve"),
        "groundstate.iter.ms": 1e3 * _ratio(sum(dur[i] for i in idx("groundstate.solve")), gs_iters),
        "criterion.eigen.calls": len(eig),
        "criterion.eigen.useful_ratio": _ratio(sum(spans[i][5]["negative"] for i in eig), len(eig)),
        "criterion.eigen.outer_iterations": attr_sum("criterion.eigen", "iterations"),
        "criterion.cg.calls": len(cg),
        "criterion.cg.iterations": cg_iters,
        "criterion.cg.failed": sum(spans[i][5]["info"] != 0 for i in cg),
        "criterion.cg.s": self_s("criterion.cg"),
        "criterion.cg.iter.ms": 1e3 * _ratio(sum(dur[i] for i in cg), cg_iters),
        "criterion.bounds.s": self_s("criterion.bounds"),
        "threshold.probes": len(probes),
        "threshold.decided_ratio": _ratio(
            sum(spans[i][5]["verdict"] in ("Scatters", "NonScatter") for i in probes), len(probes)
        ),
        "threshold.probe.s": self_s("threshold.probe"),
        "threshold.classify.s": self_s("threshold.classify"),
        "cli.build_data.s": self_s("cli.build_data"),
        "cli.io.s": self_s("cli.io"),
        "cli.self.s": self_s("cli.main"),
    }


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point.

    python3 bench/run.py --workload graph-ladder --seed 1 --seconds 35 --trace 0

Run from the repository root.  It imports ``goodcones`` from ``src/`` of the
same checkout, builds the workload's inputs from ``--seed``, and runs one
closed-loop client (no threads, no subprocesses) for whole passes over the
workload's ops until ``--seconds`` have elapsed.  Every output is checked
against exact invariants computed by the benchmark itself.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs one untraced and one traced pass and reports the per-layer metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts failed ops
that are not frontier ops (frontier ops fail today on purpose; their
statuses are printed and recorded).  The exit code is 1 when an output is
wrong, 0 otherwise.  A record with the seed, the generator parameters, the
git SHA, a digest of ``src/goodcones`` and the Python version is printed
and written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import sys
import tempfile
import types
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 5
# Tracing slows ops down; the traced pass gets a longer deadline so that no op's status depends on the tracer.
TRACE_DEADLINE_FACTOR = 2
MODULES = ("cli", "cone", "construct", "euler", "exactnum", "graph", "reeb", "serial", "surgery")

sys.path.insert(0, ROOT)
sys.path.insert(0, SRC)

from bench import harness  # noqa: E402
from bench.calibrate import REFERENCE_SLICE_S, time_slice  # noqa: E402
from bench.tracer import Tracer  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402


def fresh_import():
    """Import goodcones from this checkout's src/ with nothing cached."""
    for name in [n for n in sys.modules if n == "goodcones" or n.startswith("goodcones.")]:
        del sys.modules[name]
    gc = importlib.import_module("goodcones")
    if not os.path.abspath(gc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"goodcones imported from {gc.__file__}, not from {SRC}")
    mods = types.SimpleNamespace(gc=gc)
    for name in MODULES:
        setattr(mods, name, importlib.import_module(f"goodcones.{name}"))
    return mods


def setup(workload, seed, smoke, workdir):
    """Set up SETUP_REPEATS times (fresh import plus seeded inputs); keep
    the last set-up, the duration of each and the calibration slices timed
    around them."""
    build = WORKLOADS[workload][0]
    times = []
    slices = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        slices.append(time_slice())
        start = perf_counter()
        mods = fresh_import()
        ops, params = build(mods, random.Random(seed), workdir, smoke)
        times.append(perf_counter() - start)
    slices.append(time_slice())
    return mods, ops, params, times, slices


def git_sha():
    """HEAD of the checkout read from .git, or None outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "goodcones")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_ratio", "1"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("exactnum", "cone", "reeb", "euler", "graph", "surgery", "construct", "serial", "cli")


def layer_metrics(tracer, skip_ops, n_ops, untraced_wall, traced_wall):
    """Per-layer metrics of the traced pass (ops that timed out excluded)."""
    by_name, by_layer, op_wall = tracer.summarize(skip_ops)

    def fn(name, field):
        calls, own, errors, nones = by_name.get(name, (0, 0.0, 0, 0))
        return {"calls": calls, "self_s": own, "errors": errors, "nones": nones}[field]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for layer in LAYERS:
        calls, own, errors = by_layer.get(layer, (0, 0.0, 0))
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (own, "s")
        metrics[f"{layer}.errors"] = (errors, "count")
    metrics["bench.self_s"] = (by_layer.get("bench", (0, 0.0, 0))[1], "s")
    canon = "graph.FiniteCyclicSubgroup.canonical"
    metrics[f"{canon}.calls"] = (fn(canon, "calls"), "count")
    metrics[f"{canon}.self_s"] = (fn(canon, "self_s"), "s")
    for name in (
        "graph.canonical_form", "graph.extract_graph", "cone.validate",
        "reeb.choose_transverse_circle", "euler.verify_global_identity",
        "surgery.find_blowdown_normal", "surgery.plan_blowdown_sequence",
        "surgery.replay", "construct.obstructed_family", "cli.run",
        "serial.document_from_json", "serial.graph_to_json",
    ):
        metrics[f"{name}.self_s"] = (fn(name, "self_s"), "s")
    metrics["cone.validate.calls"] = (fn("cone.validate", "calls"), "count")
    metrics["cone.validate.calls_per_op"] = (ratio(fn("cone.validate", "calls"), n_ops), "calls/op")
    metrics["reeb.choose_transverse_circle.errors"] = (fn("reeb.choose_transverse_circle", "errors"), "count")
    metrics["reeb.isotropy_profile.calls"] = (fn("reeb.isotropy_profile", "calls"), "count")
    find = "surgery.find_blowdown_normal"
    metrics[f"{find}.none_ratio"] = (ratio(fn(find, "nones"), fn(find, "calls")), "1")
    metrics["surgery.cut.rejected_ratio"] = (ratio(fn("surgery.cut", "errors"), fn("surgery.cut", "calls")), "1")
    metrics["construct.close_chain.self_s"] = (
        fn("construct.close_chain", "self_s") + fn("construct.close_chain_normals", "self_s"), "s")
    metrics["exactnum.QuadNumber.created"] = (fn("exactnum.QuadNumber.__init__", "calls"), "count")
    metrics["exactnum.QuadNumber.sign.calls"] = (fn("exactnum.QuadNumber.sign", "calls"), "count")
    metrics["exactnum.is_prime.calls"] = (fn("exactnum.is_prime", "calls"), "count")
    metrics["trace.op_wall_s"] = (op_wall, "s")
    metrics["trace.overhead_ratio"] = (ratio(traced_wall, untraced_wall), "1")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest rung of the workload, short deadline")
    args = parser.parse_args(argv)

    deadline = 1.0 if args.smoke else WORKLOADS[args.workload][1]
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        mods, ops, params, setup_times, setup_slices = setup(args.workload, args.seed, args.smoke, workdir)
        if args.trace:
            cap = max(1.5 * args.seconds, 30)
            reference = harness.run_passes(ops, 0, deadline, cap=cap)
            deadline *= TRACE_DEADLINE_FACTOR
            tracer = Tracer()
            tracer.install()
            try:
                result = harness.run_passes(ops, 0, deadline, tracer=tracer, cap=cap)
            finally:
                tracer.uninstall()
        else:
            result = harness.run_passes(
                ops, args.seconds, deadline, cap=max(3 * args.seconds, 60), calibrate=time_slice)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Machine-speed factors of the set-up and of the timed loop (calibrate.py).
    setup_speed = harness.median(setup_slices) / REFERENCE_SLICE_S
    speed = harness.median(result.calibration) / REFERENCE_SLICE_S if result.calibration else 1.0
    summary = harness.summarize(ops, result, deadline, speed)
    raw = harness.summarize(ops, result, deadline)

    if args.trace:
        timed_out = {i for i, s in enumerate(result.samples) if s.status == "timeout"}
        pairs = [
            (a.wall, b.wall) for i, (a, b) in enumerate(zip(reference.samples, result.samples))
            if i not in timed_out and a.status != "timeout"
        ]
        metrics = layer_metrics(
            tracer, timed_out, len(result.samples) - len(timed_out),
            sum(a for a, _ in pairs), sum(b for _, b in pairs),
        )
        spans_path = os.path.join(OUT_DIR, f"{args.workload}.spans.jsonl.gz")
        span_count = tracer.write(spans_path)
    else:
        values = dict(summary)
        values["setup_s"] = harness.median(setup_times) / setup_speed
        values["peak_rss_mb"] = rss_mb
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "deadline_s": deadline,
        "params": params,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "passes": result.passes,
        "samples": summary["attempted"],
        "beyond_p90": summary["beyond_p90"],
        "fail_ratio": {"value": summary["fail_ratio"], "failed": summary["failed"], "attempted": summary["attempted"]},
        "setup_s_each": setup_times,
        "speed": {"setup": setup_speed, "loop": speed, "slices": len(result.calibration),
                  "reference_slice_s": REFERENCE_SLICE_S},
        "raw": {"setup_s": harness.median(setup_times), "ops_per_s": raw["ops_per_s"],
                "op_p50_ms": raw["op_p50_ms"], "op_p90_ms": raw["op_p90_ms"]},
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "status": harness.statuses(ops, result),
    }
    if args.trace:
        record["spans"] = {"path": os.path.relpath(spans_path, ROOT), "count": span_count}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {result.passes}  "
          f"samples {summary['attempted']} ({summary['beyond_p90']} beyond p90)  deadline {deadline} s")
    print(f"fail_ratio {summary['fail_ratio']:.4f} = {summary['failed']}/{summary['attempted']} "
          f"({summary['failed'] - summary['failed_unexpected']} frontier, {summary['failed_unexpected']} other, "
          f"{summary['wrong']} wrong outputs)")
    for op_name, entry in record["status"].items():
        if entry["frontier"] or set(entry["status"]) != {"ok"}:
            print(f"status {op_name}: {entry['status']}" + (" [frontier]" if entry["frontier"] else "")
                  + (f"  {entry['detail']}" if "detail" in entry else ""))
    if not args.trace:
        print(f"speed factor {speed:.4f} (set-up {setup_speed:.4f}) from {len(result.calibration)} "
              f"calibration slices; unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in record["raw"].items()))
    for metric, (value, unit) in metrics.items():
        print(f"{metric:48s} {value:.6g} {unit}")
    print("RECORD " + json.dumps({k: v for k, v in record.items() if k not in ("status", "metrics")}))

    correct = summary["wrong"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed_unexpected"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the cpsums library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one caller, closed loop: the next op starts only after the
previous one returned and its output was checked.  The op alone is
timed; checks, input generation and tracing hooks are not.  Inputs are
handed out in rounds (see workloads.py) and the timed phase ends at the
first round boundary after S seconds of op time.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed number
of rounds (derived from S, so two traced runs with one seed repeat every
count) once untraced and once traced, and prints the per-layer metrics.
The last line of standard output is the JSON result; the lines before
it are a readable report, and perfbench/out/ keeps the full report and
the span records.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

import tracing
import workloads

OUT_DIR = os.path.join(workloads.HERE, "out")
SETUP_REPEATS = 3
SETUP_EVERY_S = 0.5  # one set-up sample per this much op time
P90_MIN_OPS = 100


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked."""


def load_cpsums():
    """Import cpsums from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(workloads.SRC, "cpsums", "__init__.py")):
        raise BenchError(f"no cpsums package under {workloads.SRC}")
    if sys.path[:1] != [workloads.SRC]:
        sys.path.insert(0, workloads.SRC)
    module = importlib.import_module("cpsums")
    if not os.path.abspath(module.__file__).startswith(workloads.SRC + os.sep):
        raise BenchError(f"cpsums imported from {module.__file__}, not {workloads.SRC}")
    return module


def _purge_cpsums():
    for name in [n for n in sys.modules if n == "cpsums" or n.startswith("cpsums.")]:
        del sys.modules[name]


def setup_samples(repeats, warm_up=False):
    """`repeats` timings of `import cpsums` (with `cpsums.cli`) plus the
    first table load, each on a fresh import in this process, as
    (total s, import s, load s).

    `warm_up` adds a discarded first pass that imports the standard
    library modules cpsums uses and writes bytecode, so every timed pass
    does the same work.
    """
    load_cpsums()
    samples = []
    for i in range(repeats + warm_up):
        _purge_cpsums()
        gc.collect()
        t0 = time.perf_counter()
        importlib.import_module("cpsums")
        cli = importlib.import_module("cpsums.cli")
        t1 = time.perf_counter()
        cli.tables.all_raw_records()
        t2 = time.perf_counter()
        if i or not warm_up:
            samples.append((t2 - t0, t1 - t0, t2 - t1))
    load_cpsums()
    return samples


class Loop:
    """Closed loop over a workload's rounds; op time only."""

    def __init__(self, workload, rng, tiny):
        self.workload = workload
        self.rng = rng
        self.tiny = tiny
        self.latencies_ms: list[float] = []
        self.failures: list[str] = []
        self.rounds = 0

    @property
    def busy_s(self):
        return sum(self.latencies_ms) / 1e3

    def run_round(self, inputs, op=None, tracer=None):
        op = op or self.workload.op
        for x in inputs:
            if tracer is not None:
                tracer.op_id += 1
            t0 = time.perf_counter()
            try:
                out = op(x, self.tiny)
            except Exception as exc:  # counted as a failed op, run continues
                self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
                self.failures.append(f"{x!r}: {type(exc).__name__}: {exc}")
                continue
            self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            try:
                problems = self.workload.check(x, out)
            except Exception as exc:  # malformed output: a failed op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            del out
            if problems:
                self.failures.append(f"{x!r}: " + "; ".join(problems[:3]))
        self.rounds += 1

    def run_for(self, seconds, between_rounds=None):
        """Run rounds until `seconds` of op time; `between_rounds(s)` gets
        the op time of the round just run."""
        while True:
            before = self.busy_s
            self.run_round(self.workload.make_round(self.rng, self.tiny))
            if self.busy_s >= seconds:
                return
            if between_rounds is not None:
                between_rounds(self.busy_s - before)

    @property
    def ops_per_s(self):
        return len(self.latencies_ms) / self.busy_s


def _peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is KiB on Linux


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(workloads.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="ascii") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def metadata(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "trace": args.trace,
        "git_commit": _git_commit(),
    }


def end_to_end(workload, seed, seconds, tiny=False):
    # set-up is sampled between rounds in proportion to op time, so its
    # median spans the whole run as the op timings do
    setup = setup_samples(SETUP_REPEATS, warm_up=True)
    loop = Loop(workload, random.Random(seed), tiny)
    loop.run_for(
        seconds,
        lambda round_s: setup.extend(setup_samples(max(1, int(round_s / SETUP_EVERY_S)))),
    )
    lat = sorted(loop.latencies_ms)
    attempted = len(lat)
    metrics = {
        "setup_s": (statistics.median(x[0] for x in setup), "s"),
        "ops_per_s": (loop.ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "ok_ratio": ((attempted - len(loop.failures)) / attempted, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(not workload.in_process), "MB"),
    }
    info = {
        "ops": attempted,
        "rounds": loop.rounds,
        "timed_s": loop.busy_s,
        "setup_samples": len(setup),
        "latency_samples": attempted,
    }
    if attempted >= P90_MIN_OPS:
        info["op_p90_ms"] = statistics.quantiles(lat, n=10)[-1]
    return metrics, attempted, loop.failures, info


def traced_round_count(workload, seconds):
    """Fixed from the arguments alone, so every count repeats exactly."""
    return max(1, int(seconds / (3 * workload.round_s)))


def _traced_verify_op(tracer, spans_dir):
    """verify-cli op through `verify_child.py`, merging its trace."""
    child = os.path.join(workloads.HERE, "verify_child.py")

    def op(seed, tiny):
        result_path = os.path.join(spans_dir, f"child-op{tracer.op_id}.json")
        t0 = time.perf_counter_ns()
        code, stdout = workloads.verify_op(
            seed, tiny, prefix=[child, "--result", result_path, "--op", str(tracer.op_id), "--"]
        )
        wall = time.perf_counter_ns() - t0
        with open(result_path, encoding="utf-8") as fh:
            child_result = json.load(fh)
        tracer.merge(child_result["summary"])
        tracer.counters["cli.spawn_ns"] = (
            tracer.counters.get("cli.spawn_ns", 0) + wall - child_result["elapsed_ns"]
        )
        return code, stdout

    return op


def per_layer(workload, seed, seconds, tiny=False, spans_path=None):
    setup = setup_samples(SETUP_REPEATS, warm_up=True)
    rng = random.Random(seed)
    rounds = [workload.make_round(rng, tiny) for _ in range(traced_round_count(workload, seconds))]

    plain = Loop(workload, None, tiny)
    for inputs in rounds:
        plain.run_round(inputs)

    tracer = tracing.Tracer()
    traced = Loop(workload, None, tiny)
    spans_dir = os.path.dirname(spans_path) if spans_path else OUT_DIR
    os.makedirs(spans_dir, exist_ok=True)
    if workload.in_process:
        with tracer.installed():
            for inputs in rounds:
                traced.run_round(inputs, tracer=tracer)
    else:
        op = _traced_verify_op(tracer, spans_dir)
        for inputs in rounds:
            traced.run_round(inputs, op=op, tracer=tracer)
    if spans_path:
        tracer.write_spans(spans_path)

    c = tracer.counters
    ms = {k: v / 1e6 for k, v in tracer.self_ns.items()}
    op_ns = sum(traced.latencies_ms) * 1e6
    lr_calls = c.get("extensions.lr_positive.calls", 0)
    pi_calls = c.get("cohomotopy.pi_s0_connected_sum.calls", 0)
    metrics = {
        "extensions.partitions.yielded": (c.get("extensions.partitions.yielded", 0), "count"),
        "extensions.lr_positive.calls": (lr_calls, "count"),
        "extensions.lr_positive.hit_ratio": (
            c.get("extensions.lr_positive.true", 0) / lr_calls if lr_calls else 0.0, "ratio"),
        "extensions.middle_candidates_between.self_ms": (
            ms.get("extensions.middle_candidates_between", 0.0), "ms"),
        "extensions.resolve.candidates_in": (c.get("extensions.resolve.candidates_in", 0), "count"),
        "extensions.resolve.candidates_out": (c.get("extensions.resolve.candidates_out", 0), "count"),
        "extensions.brute_force_middle_terms.calls": (
            c.get("extensions.brute_force_middle_terms.calls", 0), "count"),
        "extensions.brute_force_middle_terms.self_ms": (
            ms.get("extensions.brute_force_middle_terms", 0.0), "ms"),
        "fgab.smith_normal_form.calls": (c.get("fgab.smith_normal_form.calls", 0), "count"),
        "fgab.smith_normal_form.self_ms": (ms.get("fgab.smith_normal_form", 0.0), "ms"),
        "fgab.smith_normal_form.max_transform_bits": (
            c.get("fgab.smith_normal_form.max_transform_bits", 0), "bits"),
        "fgab.group_from_relations.self_ms": (ms.get("fgab.group_from_relations", 0.0), "ms"),
        "fgab.hom.self_ms": (ms.get("fgab.hom", 0.0), "ms"),
        "fgab.canon.calls": (c.get("fgab.canon.calls", 0), "count"),
        "fgab.canon.self_ms": (ms.get("fgab.canon", 0.0), "ms"),
        "ktheory.ko_group.self_ms": (ms.get("ktheory.ko_group", 0.0), "ms"),
        "ktheory.ko_group.labels": (c.get("ktheory.ko_group.labels", 0), "count"),
        "ktheory.verify_sandwich.self_ms": (ms.get("ktheory.verify_sandwich", 0.0), "ms"),
        "tables.lookup.calls": (c.get("tables.lookup.calls", 0), "count"),
        "tables.lookup.self_ms": (ms.get("tables.lookup", 0.0), "ms"),
        "tables.cold_load_ms": (statistics.median(x[2] for x in setup) * 1e3, "ms"),
        "cli.import_ms": (statistics.median(x[1] for x in setup) * 1e3, "ms"),
        "cohomotopy.pi_s0_connected_sum.calls": (pi_calls, "count"),
        "cohomotopy.pi_s0_connected_sum.distinct_ratio": (
            len(tracer.keys) / pi_calls if pi_calls else 0.0, "ratio"),
        "surgery.structure_set.self_ms": (ms.get("surgery.structure_set", 0.0), "ms"),
        **{
            f"verify.{suite}.ms": (tracer.total_ns.get(f"verify.{suite}", 0) / 1e6, "ms")
            for suite in workloads.SUITE_NAMES
        },
        "cli.main.self_ms": (ms.get("cli.main", 0.0), "ms"),
        "cli.spawn_overhead_ms": (c.get("cli.spawn_ns", 0) / 1e6, "ms"),
        **{
            metric: (100.0 * tracer.group_ns.get(group, 0) / op_ns, "%")
            for group, metric in tracing.SHARE_GROUPS.items()
        },
        "trace.ops": (len(traced.latencies_ms), "count"),
        "trace.overhead_ops_per_s": (traced.ops_per_s - plain.ops_per_s, "1/s"),
    }
    failures = plain.failures + traced.failures
    attempted = len(plain.latencies_ms) + len(traced.latencies_ms)
    info = {
        "rounds": len(rounds),
        "ops_untraced": len(plain.latencies_ms),
        "ops_traced": len(traced.latencies_ms),
        "untraced_ops_per_s": plain.ops_per_s,
        "traced_ops_per_s": traced.ops_per_s,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "spans_file": spans_path,
    }
    return metrics, attempted, failures, info


def measure(workload_name, seed, seconds, trace, tiny=False, spans_path=None):
    """Run one workload; return the result object and a report for humans."""
    workload = workloads.WORKLOADS[workload_name]
    if trace:
        metrics, attempted, failures, info = per_layer(
            workload, seed, seconds, tiny, spans_path
        )
    else:
        metrics, attempted, failures, info = end_to_end(workload, seed, seconds, tiny)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, {"info": info, "failures": failures[:20]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_cpsums()
    except (BenchError, ImportError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(OUT_DIR, stem + ".spans.jsonl") if args.trace else None
    result, report = measure(args.workload, args.seed, args.seconds, args.trace,
                             spans_path=spans_path)
    meta = metadata(args)
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, **report, "result": result}, fh, indent=1)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"python={meta['python']} cpus={meta['cpu_count']} commit={meta['git_commit']}")
    print(f"# {meta['platform']}")
    for key, value in report["info"].items():
        print(f"# {key}: {value}")
    for failure in report["failures"]:
        print(f"# FAILED {failure}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Traced stand-in for `python -m cpsums.cli`, used by the verify-cli workload.

    python3 perfbench/verify_child.py --result FILE --op N -- verify --suite all ...

Imports cpsums, installs the same wrappers as the in-process workloads,
calls `cpsums.cli.main(argv)` and exits with its code.  FILE receives
the trace summary and the time from this script's first line to the end
of `main`, which the parent subtracts from the op's wall time to get
the spawn overhead.  The spans, tagged with op id N, go to FILE with
`.spans.jsonl` appended.
"""

import time

START_NS = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv):
    if len(argv) < 5 or argv[0] != "--result" or argv[2] != "--op" or argv[4] != "--":
        sys.stderr.write("usage: verify_child.py --result FILE --op N -- CLI-ARGS...\n")
        return 2
    result_path, op_id, cli_argv = argv[1], int(argv[3]), argv[5:]
    if sys.path[:1] != [workloads.SRC]:
        sys.path.insert(0, workloads.SRC)
    import cpsums.cli

    tracer = tracing.Tracer()
    tracer.op_id = op_id
    with tracer.installed():
        code = cpsums.cli.main(cli_argv)
    sys.stdout.flush()
    elapsed = time.perf_counter_ns() - START_NS
    tracer.write_spans(result_path + ".spans.jsonl")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"code": code, "elapsed_ns": elapsed, "summary": tracer.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

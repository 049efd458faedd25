"""Run one cadet3d CLI command in its own process, optionally traced.

Usage: python3 child.py SRC_DIR REPORT_JSON TRACE_STEM|- -- CLI_ARGS...

Imports `cadet3d` from SRC_DIR only, runs `cadet3d.cli.main(CLI_ARGS)` and
writes REPORT_JSON with the exit code and the in-process wall time of
`main`. With a TRACE_STEM it wraps the traced functions first, adds the span
summary to the report and writes every span to TRACE_STEM.npz after `main`
has returned, outside the timed interval.
"""
import json
import os
import sys
import time


def main() -> int:
    src, report_path, trace_stem, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SRC_DIR REPORT_JSON TRACE_STEM|- -- CLI_ARGS...")
    sys.path.insert(0, os.path.abspath(src))
    from cadet3d.cli import main as cli_main

    tracer = None
    if trace_stem != "-":
        sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer(run_id=os.path.basename(trace_stem))
        tracer.install()
    t0 = time.perf_counter()
    rc = cli_main(cli_args)
    report = {"rc": rc, "main_s": time.perf_counter() - t0}
    if tracer is not None:
        report["trace"] = tracer.summary()
        tracer.dump_spans(trace_stem + ".npz")
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

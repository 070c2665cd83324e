"""One benchmark process: import the CLI (set-up), then optionally make one CLI call.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds ``argv`` (the CLI arguments, or null for a set-up probe),
``trace`` (wrap the layers and record spans), ``result`` (where to write the
timings) and ``spans`` (where a traced call writes its spans).  The parent,
``run.py``, starts this with the package sources on PYTHONPATH.
"""

import json
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    import starnoma.cli as cli

    result = {"setup_end": time.monotonic(), "module": cli.__file__}
    if spec["argv"] is not None:
        rec = None
        if spec["trace"]:
            import tracer

            rec = tracer.Recorder()
            result["notes"] = tracer.install(rec)
        t0, c0 = time.perf_counter(), time.process_time()
        if rec is None:
            code = cli.main(spec["argv"])
        else:
            code = rec.call(tracer.ROOT_SPAN, cli.main, (spec["argv"],), {})
        result["run_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - c0
        result["exit_code"] = code
        if rec is not None:
            with open(spec["spans"], "w", encoding="utf-8") as fh:
                json.dump(rec.spans, fh)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

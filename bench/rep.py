"""One pass of the offline pipeline in a fresh process.

Usage: python3 rep.py SPEC.json

SPEC names the source tree, the pipeline config, the workload and whether
to trace. The stages run in CLI order, each timed on its own; the result
(stage times, failures, peak RSS, and the spans when tracing) is written
as JSON to the path SPEC gives. A fresh process per pass keeps one pass's
heap and caches out of the next, as separate CLI commands would.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext

STAGES = ("extract", "match", "batch-build", "classify", "analyze", "report")


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from sacreddetect import stages
    from sacreddetect.config import validate_config
    from sacreddetect.judge import providers

    replay = spec["workload"] == "religious-longform"
    if replay:
        from replay import ReplayProvider

        providers.get_provider = ReplayProvider
    tracer = None
    if spec["trace"]:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    config = validate_config(spec["config"])
    calls = {
        "extract": lambda: stages.run_extract(config),
        "match": lambda: stages.run_match(config),
        "batch-build": lambda: stages.run_batch_build(config),
        "classify": lambda: stages.run_classify(config, stub=not replay),
        "analyze": lambda: stages.run_analyze(config),
        "report": lambda: stages.run_report(config),
    }
    times: dict[str, float] = {}
    failed: list[str] = []
    first = time.perf_counter()
    for name in STAGES:
        start = time.perf_counter()
        try:
            with tracer.span(f"stage.{name}") if tracer else nullcontext():
                calls[name]()
        except Exception:  # a failed stage is counted, and the next one still runs
            traceback.print_exc()
            failed.append(name)
        times[name] = time.perf_counter() - start
    pipeline_s = time.perf_counter() - first

    result = {
        "stages": times,
        "failed": failed,
        "pipeline_s": pipeline_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["trace"] = tracer.dump()
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

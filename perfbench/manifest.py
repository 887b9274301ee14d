"""The benchmark's metric catalogue and the ``BENCHMARK.json`` it implies.

One source of truth: the harness emits exactly these metrics, the tests
check the emitted names and units against them, and
``python3 perfbench/manifest.py`` rewrites ``BENCHMARK.json`` from them.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

import env

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

#: (name, unit, better, bound). ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("items_per_s", "items/s", "higher", 0.25),
    ("batch_ms_p50", "ms", "lower", 0.25),
    ("batch_ms_tail", "ms", "lower", 0.25),
    ("rule_edit_ms_p50", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("resume_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("disk_mb", "MB", "lower", 0.25),
    ("coverage", "ratio", "higher", 0.25),
    ("precision", "ratio", "higher", 0.15),
)

#: Layers with inclusive time, self time and call count, in span names.
TIMED_LAYERS: Tuple[str, ...] = (
    "catalog.generate_item",
    "learning.predict",
    "learning.fit",
    "core.ruleset.apply",
    "chimera.rule_stage",
    "chimera.attr_stage",
    "chimera.filter",
    "chimera.gate",
    "chimera.vote",
    "chimera.classify_batch",
    "execution.add_items",
    "execution.fired_map",
    "execution.rule_delta",
    "repository.log_append",
    "service.journal",
    "service.checkpoint",
    "service.series",
    "observability.provenance",
    "observability.health",
    "observability.metrics",
    "service.setup",
    "analyst.edit",
    "service.resume",
    "service.resume.load",
    "service.resume.journal_read",
    "service.resume.restore_items",
    "service.resume.restore_state",
    "service.resume.provenance_replay",
)

#: Per-layer metrics that are not a (ms, self_ms, calls) triple.
EXTRA_LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("service.process_batch.ms", "ms", "lower"),
    ("service.process_batch.calls", "count", "lower"),
    ("service.self_ms", "ms", "lower"),
    ("core.ruleset.apply.calls_per_item", "count", "lower"),
    ("execution.rule_evaluations", "count", "lower"),
    ("execution.fired_pairs", "count", "lower"),
    ("service.checkpoint.bytes", "bytes", "lower"),
    ("ledger.covered_ms", "ms", "lower"),
    ("ledger.residual_share", "ratio", "lower"),
    ("ledger.closure_error_ms", "ms", "lower"),
    ("trace.items_per_s", "items/s", "higher"),
    ("trace.untraced_items_per_s", "items/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)


def per_layer() -> List[Tuple[str, str, str]]:
    metrics = []
    for layer in TIMED_LAYERS:
        metrics += [
            (f"{layer}.ms", "ms", "lower"),
            (f"{layer}.self_ms", "ms", "lower"),
            (f"{layer}.calls", "count", "lower"),
        ]
    return metrics + list(EXTRA_LAYER_METRICS)


def units(trace: bool) -> Dict[str, str]:
    if trace:
        return {name: unit for name, unit, _better in per_layer()}
    return {name: unit for name, unit, _better, _bound in END_TO_END}


def benchmark_json() -> Dict[str, object]:
    if not env.add_src_path():
        raise SystemExit(f"program sources not found under {env.SRC}")
    from workloads import WORKLOADS

    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer()
        ],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    with open(os.path.join(env.REPO_ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
        handle.write(render())

"""Drive ``StreamService`` through one workload and measure it.

The loop is closed with one caller: the daemon takes its next batch only
after the previous one is checkpointed, and the analyst's edits for a
batch run just before it. Batch arrival times live on the service's
simulated clock, so the benchmark has no wall-clock schedule to keep.
The loop's last quarter alternates with a fresh same-seed service (see
:func:`interleave_reference`).

Every timing is taken next to a host-speed probe and reported at the
reference host speed (see :mod:`hostspeed`); the measured values are
printed beside them.

An untraced run (``trace=False``) reports the end-to-end metrics; a traced
run repeats the same workload with every layer wrapped (see
:mod:`tracing`) and reports the per-layer ledger. Correctness checks run
outside every timer and count toward ``failed``.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import resource
import shutil
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.execution.executor import NaiveExecutor
from repro.catalog.types import ProductItem
from repro.core.prepared import PreparedItem, prepare
from repro.core.rule import Rule
from repro.service import ServiceConfig, StreamService

import hostspeed
import tracing
from manifest import TIMED_LAYERS
from workloads import EditStream, Workload, prepare_inputs

#: Journalled items the fired-map oracle re-evaluates from scratch.
ORACLE_SAMPLE = 250

#: ``setup_s`` is the median of the run's own set-up, the reference
#: service's and more fresh ones, taken until there are ``MIN_SETUPS`` and they add up
#: to ``SETUP_BUDGET_S`` seconds, or there are ``MAX_SETUPS``.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 5, 15, 1.0

#: Restarts on an untraced run's root; ``resume_s`` is their median.
RESUMES = 5

#: What ``process_batch`` does inline, outside every wrapped layer; its
#: time is the ledger residual (``service.self_ms``).
RESIDUAL_CONTENTS = (
    "journal record building (item dicts), the digest chain (canonical JSON "
    "of the whole fired map plus sha256), run totals, the series sample dict "
    "(including the fired-pair count), batch-stream bookkeeping outside "
    "generate_item and add_items, crash-plan barriers and tracer.clear"
)


@dataclass
class Tally:
    """Operations attempted and failed; every failure is named."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class RunRecord:
    """What the closed loop observed, batch by batch and edit by edit."""

    batch_ms: List[float] = field(default_factory=list)
    batch_items: List[int] = field(default_factory=list)
    edit_ms: List[float] = field(default_factory=list)
    #: The host-speed probe taken just before each batch, after its edits.
    probe_ms: List[float] = field(default_factory=list)
    #: Edits run before each batch, in batch order.
    edits_per_batch: List[int] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    label_digests: List[str] = field(default_factory=list)
    results: int = 0
    classified: int = 0
    correct: int = 0
    _labels: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def add_batch(self, service, batch, result, elapsed: float) -> None:
        self.batch_ms.append(elapsed * 1000.0)
        self.batch_items.append(len(batch.items))
        self.digests.append(service.digest_chain)
        labels = self._labels
        for item_result in result.results:
            label = item_result.label
            labels.update(f"{item_result.item.item_id}\t{label}\n".encode("utf-8"))
            if label is not None:
                self.classified += 1
                self.correct += item_result.item.true_type == label
        for item in result.rejected:
            labels.update(f"{item.item_id}\t<rejected>\n".encode("utf-8"))
        self.results += len(result.results)
        self.label_digests.append(labels.hexdigest())

    @property
    def items(self) -> int:
        return sum(self.batch_items)

    def adjusted_batch_ms(self) -> List[float]:
        """Batch latencies at the reference host speed."""
        speeds = hostspeed.smooth(self.probe_ms)
        return [hostspeed.adjust(ms, probe) for ms, probe in zip(self.batch_ms, speeds)]

    def adjusted_edit_ms(self) -> List[float]:
        """Edit latencies at the reference host speed of the batch they precede."""
        speeds = [
            speed
            for speed, edits in zip(hostspeed.smooth(self.probe_ms), self.edits_per_batch)
            for _ in range(edits)
        ]
        return [hostspeed.adjust(ms, probe) for ms, probe in zip(self.edit_ms, speeds)]


# -- statistics ---------------------------------------------------------------------


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it. Under eleven samples there is none; the maximum is
    returned with its percentile of 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def per_item_ms(batch_ms: Sequence[float], batch_items: Sequence[int]) -> float:
    """Median per-item cost of a run of batches."""
    return statistics.median(ms / max(1, items) for ms, items in zip(batch_ms, batch_items))


def cost_growth(batch_ms: Sequence[float], batch_items: Sequence[int]) -> float:
    """Median per-item cost of the last quarter over that of the first."""
    quarter = max(1, len(batch_ms) // 4)
    return per_item_ms(batch_ms[-quarter:], batch_items[-quarter:]) / per_item_ms(
        batch_ms[:quarter], batch_items[:quarter]
    )


def tree_bytes(root: str) -> int:
    total = 0
    for directory, _dirs, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


# -- driving the service ------------------------------------------------------------


def _span(recorder: Optional[tracing.SpanRecorder], name: str):
    return recorder.span(name) if recorder is not None else nullcontext()


def _collect() -> None:
    """A set-up or restart runs in a fresh process in production. Collect
    the garbage of services this process closed earlier, outside the
    timer, so it is not charged to this one: without it, each of five
    restarts in a row took longer than the one before."""
    gc.collect()


def set_up(
    root: str,
    workload: Workload,
    seed: int,
    recorder: Optional[tracing.SpanRecorder] = None,
) -> Tuple[StreamService, EditStream, hostspeed.Timed]:
    """Fresh root to ready: start (training included) plus the inputs."""
    _collect()

    def start() -> Tuple[StreamService, EditStream]:
        with _span(recorder, "service.setup"):
            service = StreamService(
                root, ServiceConfig(seed=seed, **workload.config), fsync=True
            ).start()
            return service, prepare_inputs(service, workload, seed)

    (service, edits), setup = hostspeed.timed(start)
    return service, edits, setup


def _timed_edit(edits: EditStream, record: RunRecord, recorder) -> None:
    _kind, call = edits.next_edit()
    with _span(recorder, "analyst.edit"):
        started = perf_counter()
        call()
        record.edit_ms.append((perf_counter() - started) * 1000.0)


def drive(
    service: StreamService,
    workload: Workload,
    edits: EditStream,
    batches: int,
    record: RunRecord,
    recorder: Optional[tracing.SpanRecorder] = None,
) -> None:
    """The closed loop: the batch's edits, then the batch, ``batches`` times."""
    for _ in range(batches):
        if recorder is not None:
            recorder.batch_ordinal = service.ordinal + 1
        for _ in range(workload.edits_per_batch):
            _timed_edit(edits, record, recorder)
        record.probe_ms.append(hostspeed.probe())
        record.edits_per_batch.append(workload.edits_per_batch)
        started = perf_counter()
        batch, result = service.process_batch()
        record.add_batch(service, batch, result, perf_counter() - started)


# -- correctness --------------------------------------------------------------------


def _index_false_negative(prepared: PreparedItem, rule: Rule) -> bool:
    """True when a known defect of the execution layer's anchor index
    keeps ``rule`` from ever being proposed for the item, so the
    incremental fired map misses a pair the rule's regex matches.

    The index posts a regex rule under its anchor literals and probes it
    with the item's whole tokens plus their crude singulars. It misses:

    * a plural of at most three letters: ``singular_form`` leaves "tvs"
      unstripped, so the startup rule ``tvs?`` (anchored on "tv") never
      sees a "tvs" title;
    * a literal inside a longer token: ``5g.*phones?`` matches "5g
      smartphone" and ``motor.*oils?`` matches "motorcycle oils", but
      "phone" and "motor" are not tokens of those titles.

    Any other difference from the oracle is a failure. See README.md.
    """
    anchors = rule.anchor_literals()
    if not anchors or anchors & prepared.anchor_tokens:
        return False
    tokens = prepared.token_set
    return any(
        (len(anchor) + 1 <= 3 and anchor + "s" in tokens)
        or any(anchor in token and anchor != token for token in tokens)
        for anchor in anchors
    )


def fired_map_mismatches(
    fired: Dict[str, List[str]],
    oracle: Dict[str, List[str]],
    items: Sequence[PreparedItem],
    rules: Dict[str, Rule],
) -> Tuple[List[str], List[Tuple[str, str]]]:
    """Compare sampled items' fired rules with the oracle's.

    Returns the items that differ for any reason other than the known
    index defect, and the (item, rule) pairs that defect drops.
    """
    unexplained: List[str] = []
    known: List[Tuple[str, str]] = []
    for prepared in items:
        item_id = prepared.item_id
        got = set(fired.get(item_id, ()))
        want = set(oracle.get(item_id, ()))
        missed = want - got
        explained = {
            rule_id for rule_id in missed
            if _index_false_negative(prepared, rules[rule_id])
        }
        if got - want or missed - explained:
            unexplained.append(item_id)
        known.extend((item_id, rule_id) for rule_id in sorted(explained))
    return unexplained, known


def oracle_check(service: StreamService, seed: int, tally: Tally) -> int:
    """The fired map against a from-scratch ``NaiveExecutor`` on a seeded
    subsample of journalled items and the stage's enabled rules. Returns
    the number of pairs the known index defect drops."""
    payloads = [
        payload for record in service.store.read_journal()
        for payload in record["items"]
    ]
    rng = random.Random(f"perfbench:{seed}:oracle")
    sample = rng.sample(payloads, min(ORACLE_SAMPLE, len(payloads)))
    items = [
        prepare(ProductItem(
            item_id=payload["item_id"],
            title=payload["title"],
            attributes=dict(payload["attributes"]),
            true_type=payload["true_type"],
            vendor=payload["vendor"],
            description=payload.get("description", ""),
        ))
        for payload in sample
    ]
    rules = service.chimera.rule_stage.rules.active_rules()
    oracle, _stats = NaiveExecutor(rules).run(items)
    unexplained, known = fired_map_mismatches(
        service.incremental.fired_map(), oracle, items,
        {rule.rule_id: rule for rule in rules},
    )
    tally.check(
        not unexplained, f"fired map differs from the oracle on {unexplained[:5]}"
    )
    return len(known)


def identity_check(before: Dict, after: Dict, tally: Tally) -> None:
    differing = sorted(key for key in set(before) | set(after) if before.get(key) != after.get(key))
    tally.check(not differing, f"resumed identity differs in {differing}")


def replay_check(record: RunRecord, reference: RunRecord, tally: Tally) -> None:
    """A same-seed second run over the first batches must reproduce the
    digest chain and the label digest."""
    count = len(reference.digests)
    tally.check(
        reference.digests == record.digests[:count],
        "same-seed replay gives another digest chain",
    )
    tally.check(
        reference.label_digests == record.label_digests[:count],
        "same-seed replay gives another label digest",
    )


def interleave_reference(
    service: StreamService,
    workload: Workload,
    edits: EditStream,
    record: RunRecord,
    batches: int,
    root: str,
    seed: int,
) -> Tuple[RunRecord, hostspeed.Timed]:
    """Run the main service's last ``batches`` batches alternately with the
    first ``batches`` of a fresh same-seed service on ``root``.

    The fresh service repeats the run's first quarter while the last one
    runs, so ``cost_growth`` compares the two under the same machine
    conditions: on a shared VM, speed drifts by up to 20% over tens of
    seconds, which a first-versus-last-quarter ratio would read as growth.
    Returns the fresh service's record and its set-up time.
    """
    reference, reference_edits, setup = set_up(root, workload, seed)
    reference_record = RunRecord()
    try:
        for _ in range(batches):
            drive(reference, workload, reference_edits, 1, reference_record)
            drive(service, workload, edits, 1, record)
    finally:
        reference.close()
    return reference_record, setup


# -- one run ------------------------------------------------------------------------


@dataclass
class Outcome:
    metrics: Dict[str, float]
    tally: Tally
    details: Dict[str, object]
    #: Per-batch and per-edit latencies, for the result file only.
    series: Dict[str, List[float]] = field(default_factory=dict)


@dataclass
class Pass:
    """One workload pass on a fresh root: set-up, loop, close, resume."""

    record: RunRecord
    setup: hostspeed.Timed
    loop_s: float
    disk_mb: float
    resumes: List[hostspeed.Timed]
    checkpoint_bytes: int
    rule_evaluations: int
    fired_pairs: int = 0
    known_defect_pairs: int = 0
    #: The interleaved fresh same-seed run (untraced runs only).
    reference: Optional[RunRecord] = None
    reference_setup: Optional[hostspeed.Timed] = None


def _workload_pass(
    workload: Workload,
    seed: int,
    batches: int,
    root: str,
    tally: Tally,
    recorder: Optional[tracing.SpanRecorder] = None,
    resumes: int = 1,
    reference_root: Optional[str] = None,
) -> Tuple[Pass, StreamService]:
    """Set up, run the loop, close, then restart ``resumes`` times, each
    checked against the identity read before close. With
    ``reference_root``, the last quarter of the loop interleaves with a
    fresh same-seed service there (see :func:`interleave_reference`).
    Returns the pass and the last restarted service, still open for the
    oracle check."""
    record = RunRecord()
    reference, reference_setup = None, None
    service, edits, setup = set_up(root, workload, seed, recorder)
    try:
        loop_started = perf_counter()
        try:
            quarter = max(1, batches // 4) if reference_root is not None else 0
            drive(service, workload, edits, batches - quarter, record, recorder)
            if quarter:
                reference, reference_setup = interleave_reference(
                    service, workload, edits, record, quarter, reference_root, seed
                )
        finally:
            tally.attempted += len(record.batch_ms) + len(record.edit_ms)
            if reference is not None:
                tally.attempted += len(reference.batch_ms) + len(reference.edit_ms)
        loop_s = perf_counter() - loop_started
        before = service.identity()
        rule_evaluations = service.incremental.stats.rule_evaluations
    finally:
        service.close()
    disk_mb = tree_bytes(root) / 1e6
    checkpoint_bytes = os.path.getsize(service.store.checkpoint_path)
    resume_times = []
    resumed = None

    def resume() -> Tuple[StreamService, Dict]:
        with _span(recorder, "service.resume"):
            service = StreamService(root, ServiceConfig(seed=seed, **workload.config)).start()
            return service, service.identity()

    for attempt in range(resumes):
        if resumed is not None:
            resumed.close()
            resumed = None
        _collect()
        tally.attempted += 1
        (resumed, after), resume_time = hostspeed.timed(resume)
        resume_times.append(resume_time)
        identity_check(before, after, tally)
    result = Pass(
        record, setup, loop_s, disk_mb, resume_times,
        checkpoint_bytes, rule_evaluations,
        reference=reference, reference_setup=reference_setup,
    )
    return result, resumed


def _check_pass(result: Pass, resumed: StreamService, seed: int, tally: Tally) -> None:
    """The oracle check on the restarted service, which it closes."""
    try:
        result.known_defect_pairs = oracle_check(resumed, seed, tally)
        result.fired_pairs = sum(
            len(rules) for rules in resumed.incremental.fired_map().values()
        )
    finally:
        resumed.close()


def run(
    workload: Workload, seed: int, seconds: float, trace: bool, work_dir: str
) -> Outcome:
    batches = workload.plan(seconds)
    tally = Tally()
    run_dir = os.path.join(work_dir, f"{workload.name}-s{seed}-p{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        if trace:
            return _traced(workload, seed, batches, run_dir, tally, work_dir)
        return _untraced(workload, seed, batches, run_dir, tally)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _items_per_s(batch_ms: Sequence[float], items: int) -> float:
    return items / (sum(batch_ms) / 1000.0)


def _common_details(result: Pass, tally: Tally) -> Dict[str, object]:
    record = result.record
    return {
        "batches": len(record.batch_ms),
        "items": record.items,
        "edits": len(record.edit_ms),
        "loop_s": result.loop_s,
        "known_defect_pairs": result.known_defect_pairs,
        "failed_ratio": len(tally.failures) / max(1, tally.attempted),
    }


def _untraced(
    workload: Workload, seed: int, batches: int, run_dir: str, tally: Tally
) -> Outcome:
    result, resumed = _workload_pass(
        workload, seed, batches, os.path.join(run_dir, "main"), tally,
        resumes=RESUMES, reference_root=os.path.join(run_dir, "reference"),
    )
    _check_pass(result, resumed, seed, tally)
    record, reference = result.record, result.reference
    replay_check(record, reference, tally)
    setups = [result.setup, result.reference_setup]
    while len(setups) < MAX_SETUPS and (
        len(setups) < MIN_SETUPS or sum(t.seconds for t in setups) < SETUP_BUDGET_S
    ):
        service, _edits, setup = set_up(
            os.path.join(run_dir, f"setup-{len(setups)}"), workload, seed
        )
        service.close()
        setups.append(setup)

    batch_ms, edit_ms = record.adjusted_batch_ms(), record.adjusted_edit_ms()
    quarter = len(reference.batch_ms)
    batch_tail, tail_pct, tail_n = tail(batch_ms)
    edit_tail, edit_pct, edit_n = tail(edit_ms)
    metrics = {
        "items_per_s": _items_per_s(batch_ms, record.items),
        "batch_ms_p50": statistics.median(batch_ms),
        "batch_ms_tail": batch_tail,
        "rule_edit_ms_p50": statistics.median(edit_ms),
        "setup_s": statistics.median(t.adjusted for t in setups),
        "resume_s": statistics.median(t.adjusted for t in result.resumes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "disk_mb": result.disk_mb,
        "coverage": record.classified / max(1, record.results),
        "precision": record.correct / max(1, record.classified),
    }
    details = _common_details(result, tally)
    details.update({
        "batch_ms_tail": {"percentile": tail_pct, "samples": tail_n},
        # Printed, not a metric: the 11th-largest of a few hundred
        # sub-millisecond edits is a VM scheduling or I/O hiccup, and its
        # run-to-run spread is wider than any bound the benchmark allows.
        "rule_edit_ms_tail": {"ms": edit_tail, "percentile": edit_pct, "samples": edit_n},
        # Printed, not a metric: over five seeds, its spread was 10-23% on
        # every workload and with every estimator tried (ratios of medians,
        # of sums, of paired batches; adjusted or not), because a quarter
        # holds only 12 to 40 batches. ``cost_growth_sequential`` is the
        # plain first-versus-last-quarter ratio of the main run alone.
        "cost_growth": per_item_ms(
            batch_ms[-quarter:], record.batch_items[-quarter:]
        ) / per_item_ms(reference.adjusted_batch_ms(), reference.batch_items),
        "cost_growth_sequential": cost_growth(batch_ms, record.batch_items),
        # The timings as measured, before the host-speed adjustment.
        "raw": {
            "probe_ms_p50": statistics.median(record.probe_ms),
            "items_per_s": _items_per_s(record.batch_ms, record.items),
            "batch_ms_p50": statistics.median(record.batch_ms),
            "batch_ms_tail": tail(record.batch_ms)[0],
            "rule_edit_ms_p50": statistics.median(record.edit_ms),
            "setup_s": statistics.median(t.seconds for t in setups),
            "resume_s": statistics.median(t.seconds for t in result.resumes),
        },
        "setup_s_samples": setups,
        "resume_s_samples": result.resumes,
        "digest_chain": record.digests[-1],
        "label_digest": record.label_digests[-1],
    })
    series = {
        "batch_ms": record.batch_ms,
        "probe_ms": record.probe_ms,
        "edit_ms": record.edit_ms,
        "reference_batch_ms": reference.batch_ms,
        "reference_probe_ms": reference.probe_ms,
    }
    return Outcome(metrics, tally, details, series)


def _traced(
    workload: Workload,
    seed: int,
    batches: int,
    run_dir: str,
    tally: Tally,
    work_dir: str,
) -> Outcome:
    # Reference pass with tracing off, for the overhead figure.
    plain, resumed = _workload_pass(
        workload, seed, batches, os.path.join(run_dir, "plain"), tally
    )
    _check_pass(plain, resumed, seed, tally)
    recorder = tracing.SpanRecorder()
    with tracing.install(recorder) as unwrapped:
        result, resumed = _workload_pass(
            workload, seed, batches, os.path.join(run_dir, "traced"), tally, recorder
        )
    _check_pass(result, resumed, seed, tally)
    spans_path = os.path.join(work_dir, f"spans-{workload.name}.jsonl")
    recorder.write(spans_path)

    summary = tracing.summarize(recorder)
    layers, ledger = summary["layers"], summary["ledger"]
    metrics: Dict[str, float] = {}
    for name in TIMED_LAYERS:
        entry = layers.get(name, {})
        for key in ("ms", "self_ms", "calls"):
            metrics[f"{name}.{key}"] = entry.get(key, 0)
    batch = layers.get(tracing.BATCH, {"ms": 0.0, "self_ms": 0.0, "calls": 0})
    covered = sum(ms for name, ms in ledger.items() if name != tracing.BATCH)
    residual = batch["self_ms"]
    closure_error = batch["ms"] - covered - residual
    tally.check(
        abs(closure_error) <= 1e-6 * max(1.0, batch["ms"]),
        f"ledger does not close: {closure_error} ms unaccounted",
    )
    traced_ips = _items_per_s(result.record.adjusted_batch_ms(), result.record.items)
    plain_ips = _items_per_s(plain.record.adjusted_batch_ms(), plain.record.items)
    metrics.update({
        "service.process_batch.ms": batch["ms"],
        "service.process_batch.calls": batch["calls"],
        "service.self_ms": residual,
        "core.ruleset.apply.calls_per_item": (
            layers.get("core.ruleset.apply", {}).get("calls", 0)
            / max(1, result.record.items)
        ),
        "execution.rule_evaluations": result.rule_evaluations,
        "execution.fired_pairs": result.fired_pairs,
        "service.checkpoint.bytes": result.checkpoint_bytes,
        "ledger.covered_ms": covered,
        "ledger.residual_share": residual / batch["ms"] if batch["ms"] else 0.0,
        "ledger.closure_error_ms": closure_error,
        "trace.items_per_s": traced_ips,
        "trace.untraced_items_per_s": plain_ips,
        "trace.overhead_ratio": plain_ips / traced_ips,
        "trace.spans": len(recorder),
    })
    details = _common_details(result, tally)
    details.update({
        "unwrapped": unwrapped,
        "spans_file": os.path.relpath(spans_path, os.path.dirname(work_dir)),
        "ledger_ms": dict(sorted(ledger.items(), key=lambda kv: -kv[1])),
        "residual_contents": RESIDUAL_CONTENTS,
    })
    return Outcome(metrics, tally, details)

"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
The tiny runs drive the real command, so every workload's metric names,
units, checks and ledger closure are exercised end to end.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import env  # noqa: E402

env.add_src_path()

import harness  # noqa: E402
import hostspeed  # noqa: E402
import manifest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(cwd: str, workload: str, trace: int, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_manifest():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert handle.read() == manifest.render()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    done = _run(REPO_ROOT, workload, trace)
    assert done.returncode == 0, done.stderr + done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {name: value["unit"] for name, value in result["metrics"].items()}
    assert emitted == manifest.units(bool(trace))
    metrics = {name: value["value"] for name, value in result["metrics"].items()}
    if trace:
        # The ledger closes: layer self times plus the batch's own self
        # time make up the wall time of every process_batch call.
        assert abs(metrics["ledger.closure_error_ms"]) < 1e-6 * metrics[
            "service.process_batch.ms"
        ]
        assert metrics["ledger.covered_ms"] + metrics["service.self_ms"] == pytest.approx(
            metrics["service.process_batch.ms"]
        )
        assert metrics["service.process_batch.calls"] == WORKLOADS[workload].plan(1)
    else:
        assert all(value > 0 for value in metrics.values())


def test_without_program_sources_fails_without_result(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(str(tmp_path), "learn_heavy", 0)
    assert done.returncode != 0
    assert done.stdout == ""


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = list(range(1, 101))
    assert harness.tail(samples) == (90, 90.0, 100)
    assert harness.tail([5.0, 1.0]) == (5.0, 100.0, 2)


def test_cost_growth_compares_quarter_medians():
    batch_ms = [10, 10, 10, 10, 20, 20, 40, 40]
    assert harness.cost_growth(batch_ms, [10] * 8) == pytest.approx(4.0)


def test_timings_are_adjusted_by_the_probe_next_to_them():
    ref = hostspeed.REFERENCE_PROBE_MS
    # Each batch's speed is the median probe of the five batches around it.
    probes = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    assert hostspeed.smooth(probes) == [ref, 1.5 * ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    record = harness.RunRecord(
        batch_ms=[100.0] * 6, probe_ms=probes,
        edit_ms=[1.0, 1.0, 3.0, 3.0], edits_per_batch=[2, 0, 1, 1, 0, 0],
    )
    assert record.adjusted_batch_ms() == pytest.approx([100.0, 200 / 3] + [50.0] * 4)
    assert record.adjusted_edit_ms() == pytest.approx([1.0, 1.0, 1.5, 1.5])
    assert hostspeed.Timed(2.0, ref / 2).adjusted == pytest.approx(4.0)
    (value, timing) = hostspeed.timed(lambda: 7)
    assert value == 7 and timing.seconds > 0 and timing.probe_ms > 0


def test_rule_decks_deal_every_card_before_repeating():
    from repro.catalog import build_seed_taxonomy

    factory = workloads.RuleFactory(build_seed_taxonomy(), workloads.rng_for(1, "t"), "t")
    cards = ["a", "b", "c", "d"]
    dealt = [factory._deal("deck", "owner", cards) for _ in range(8)]
    assert sorted(dealt[:4]) == cards and sorted(dealt[4:]) == cards
    for _ in range(20):
        first = factory._deal("pair", "owner", cards)
        assert factory._deal("pair", "owner", cards, first) != first


def test_summarize_self_time_and_nested_names():
    recorder = tracing.SpanRecorder()
    batch, apply_ = recorder.name_id(tracing.BATCH), recorder.name_id("core.ruleset.apply")
    spans = [  # (name, start, end, parent)
        (batch, 0.0, 10.0, -1),
        (apply_, 1.0, 4.0, 0),
        (apply_, 2.0, 3.0, 1),  # nested same name: inclusive time counts once
    ]
    for name, start, end, parent in spans:
        recorder.name_of.append(name)
        recorder.start.append(start)
        recorder.end.append(end)
        recorder.parent.append(parent)
        recorder.batch.append(1)
    summary = tracing.summarize(recorder)
    layers, ledger = summary["layers"], summary["ledger"]
    assert layers["core.ruleset.apply"]["ms"] == pytest.approx(3000.0)
    assert layers["core.ruleset.apply"]["self_ms"] == pytest.approx(3000.0)
    assert layers["core.ruleset.apply"]["calls"] == 2
    assert layers[tracing.BATCH]["self_ms"] == pytest.approx(7000.0)
    assert sum(ledger.values()) == pytest.approx(10000.0)


def test_install_restores_the_program():
    from repro.core.ruleset import RuleSet

    original = RuleSet.__dict__["apply"]
    recorder = tracing.SpanRecorder()
    with tracing.install(recorder) as missing:
        assert missing == []
        assert RuleSet.__dict__["apply"] is not original
        RuleSet().apply  # noqa: B018 - bound through the wrapper
    assert RuleSet.__dict__["apply"] is original


@pytest.fixture(scope="module")
def small_service(tmp_path_factory):
    """A longrun_churn service after a few batches, checkpointed."""
    workload = WORKLOADS["longrun_churn"]
    root = str(tmp_path_factory.mktemp("service"))
    service, edits, _setup_s = harness.set_up(root, workload, 5)
    record = harness.RunRecord()
    harness.drive(service, workload, edits, 6, record)
    yield service, record
    service.close()


def test_oracle_check_passes_on_the_real_fired_map(small_service):
    service, _record = small_service
    tally = harness.Tally()
    harness.oracle_check(service, 5, tally)
    assert tally.failures == [] and tally.attempted == 1


def test_corrupted_fired_map_fails_the_oracle(small_service, monkeypatch):
    service, _record = small_service
    fired = {item: list(rules) for item, rules in service.incremental.fired_map().items()}
    victim = next(iter(fired))
    fired[victim] = fired[victim][1:] + ["svc-wl-9999"]
    monkeypatch.setattr(service.incremental, "fired_map", lambda: fired)
    monkeypatch.setattr(harness, "ORACLE_SAMPLE", 10 ** 6)  # sample every item
    tally = harness.Tally()
    harness.oracle_check(service, 5, tally)
    assert len(tally.failures) == 1 and victim in tally.failures[0]


def test_corrupted_identity_fails(small_service):
    service, _record = small_service
    before = service.identity()
    after = dict(before, digest_chain="0" * 64)
    tally = harness.Tally()
    harness.identity_check(before, after, tally)
    assert tally.failures == ["resumed identity differs in ['digest_chain']"]
    harness.identity_check(before, dict(before), tally)
    assert len(tally.failures) == 1 and tally.attempted == 2


def test_replay_detects_a_different_digest_chain(small_service, tmp_path):
    _service, record = small_service
    workload = WORKLOADS["longrun_churn"]
    service, edits, _setup_s = harness.set_up(str(tmp_path), workload, 5)
    reference = harness.RunRecord()
    try:
        harness.drive(service, workload, edits, 3, reference)
    finally:
        service.close()
    tally = harness.Tally()
    harness.replay_check(record, reference, tally)
    assert tally.failures == [] and tally.attempted == 2
    forged = harness.RunRecord(digests=["0" * 64] + reference.digests[1:],
                               label_digests=list(reference.label_digests))
    harness.replay_check(record, forged, tally)
    assert tally.failures == ["same-seed replay gives another digest chain"]

"""Layer spans recorded from outside the program.

:class:`SpanRecorder` keeps every span in memory (name, start, end, parent
span, batch ordinal) and writes them out once the run is over.
:func:`install` wraps the layers' functions at class level for the length
of a traced run and puts the originals back afterwards, so nothing under
``src/`` changes and an untraced run executes the program untouched.

A function the program no longer has is skipped and listed as unwrapped;
its metrics then read zero rather than failing the traced run.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Tuple

#: (module, class, function, span name). Several functions may share a
#: span name when together they make one layer.
LAYERS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.catalog.generator", "CatalogGenerator", "generate_item", "catalog.generate_item"),
    ("repro.chimera.classifiers", "LearningClassifierStage", "predict", "learning.predict"),
    ("repro.chimera.classifiers", "LearningClassifierStage", "fit", "learning.fit"),
    ("repro.core.ruleset", "RuleSet", "apply", "core.ruleset.apply"),
    ("repro.chimera.classifiers", "RuleBasedClassifier", "predict", "chimera.rule_stage"),
    ("repro.chimera.classifiers", "RuleBasedClassifier", "vetoes", "chimera.rule_stage"),
    ("repro.chimera.classifiers", "AttributeValueClassifier", "predict", "chimera.attr_stage"),
    ("repro.chimera.classifiers", "AttributeValueClassifier", "constraints", "chimera.attr_stage"),
    ("repro.chimera.filter", "FinalFilter", "select", "chimera.filter"),
    ("repro.chimera.gatekeeper", "GateKeeper", "process", "chimera.gate"),
    ("repro.chimera.voting", "VotingMaster", "combine", "chimera.vote"),
    ("repro.chimera.pipeline", "Chimera", "classify_batch", "chimera.classify_batch"),
    ("repro.execution.incremental", "IncrementalExecutor", "add_items", "execution.add_items"),
    ("repro.execution.incremental", "IncrementalExecutor", "fired_map", "execution.fired_map"),
    ("repro.execution.incremental", "IncrementalExecutor", "add_rules", "execution.rule_delta"),
    ("repro.execution.incremental", "IncrementalExecutor", "update_rule", "execution.rule_delta"),
    ("repro.execution.incremental", "IncrementalExecutor", "remove_rules", "execution.rule_delta"),
    ("repro.repository.changelog", "ChangeLog", "append", "repository.log_append"),
    ("repro.service.checkpoint", "CheckpointStore", "append_batch", "service.journal"),
    ("repro.service.daemon", "StreamService", "_checkpoint", "service.checkpoint"),
    ("repro.service.series", "SeriesStore", "append", "service.series"),
    ("repro.service.daemon", "StreamService", "process_batch", "service.process_batch"),
    ("repro.service.checkpoint", "CheckpointStore", "load", "service.resume.load"),
    ("repro.service.checkpoint", "CheckpointStore", "read_journal", "service.resume.journal_read"),
    ("repro.execution.incremental", "IncrementalExecutor", "restore_items", "service.resume.restore_items"),
    ("repro.execution.incremental", "IncrementalExecutor", "restore_state", "service.resume.restore_state"),
    ("repro.observability.provenance", "ProvenanceLog", "replay", "service.resume.provenance_replay"),
    ("repro.observability.provenance", "ProvenanceLog", "record", "observability.provenance"),
    ("repro.observability.quality", "RuleHealthTracker", "observe_record", "observability.health"),
    ("repro.observability.quality", "RuleHealthTracker", "finish_batch", "observability.health"),
    ("repro.observability.metrics", "MetricsRegistry", "snapshot", "observability.metrics"),
    ("repro.observability.metrics", "MetricsRegistry", "delta", "observability.metrics"),
)

BATCH = "service.process_batch"
RESUME = "service.resume"


class SpanRecorder:
    """In-memory span store: parallel arrays, one entry per span."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.batch = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        #: Ordinal of the batch being processed or about to be.
        self.batch_ordinal = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.batch.append(self.batch_ordinal)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, function, name: str):
        name_id = self.name_id(name)
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = recorder.open(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                recorder.close(index)

        return traced

    def write(self, path: str) -> None:
        """One JSON object per span, in opening order; times in seconds."""
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(len(self)):
                handle.write(json.dumps({
                    "id": index,
                    "name": self.names[self.name_of[index]],
                    "start": self.start[index],
                    "end": self.end[index],
                    "parent": self.parent[index],
                    "batch": self.batch[index],
                }, separators=(",", ":")) + "\n")


@contextmanager
def install(recorder: SpanRecorder) -> Iterator[List[str]]:
    """Wrap every :data:`LAYERS` function; yields the ones not found."""
    patched = []
    missing = []
    try:
        for module_name, class_name, attribute, name in LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            cls = getattr(module, class_name, None)
            original = None if cls is None else cls.__dict__.get(attribute)
            if original is None:
                missing.append(f"{class_name}.{attribute}")
                continue
            if isinstance(original, classmethod):
                replacement = classmethod(recorder.wrap(original.__func__, name))
            else:
                replacement = recorder.wrap(original, name)
            setattr(cls, attribute, replacement)
            patched.append((cls, attribute, original))
        yield missing
    finally:
        for cls, attribute, original in reversed(patched):
            setattr(cls, attribute, original)


def _roots(recorder: SpanRecorder) -> List[int]:
    """Each span's root span index."""
    root = [0] * len(recorder)
    parent = recorder.parent
    for index in range(len(recorder)):
        up = parent[index]
        root[index] = index if up < 0 else root[up]
    return root


def summarize(recorder: SpanRecorder) -> Dict[str, object]:
    """Per-name totals plus the batch ledger.

    ``layers[name]`` sums inclusive time (outermost span of that name
    only, so nesting never counts twice), self time and calls. Spans under
    a resume count only under ``service.resume.*`` names, and those names
    count only under a resume (a fresh start also calls ``load``).
    ``ledger`` splits the wall time of all ``process_batch`` calls into
    the self time of each layer inside them plus the batch's own self
    time (what no wrapped layer covers).
    """
    n = len(recorder)
    names = recorder.names
    name_of, parent = recorder.name_of, recorder.parent
    start, end = recorder.start, recorder.end
    child_time = [0.0] * n
    for index in range(n):
        up = parent[index]
        if up >= 0:
            child_time[up] += end[index] - start[index]
    root = _roots(recorder)
    resume_id = recorder._ids.get(RESUME, -2)
    batch_id = recorder._ids.get(BATCH, -2)

    def same_name_ancestor(index: int) -> bool:
        name = name_of[index]
        up = parent[index]
        while up >= 0:
            if name_of[up] == name:
                return True
            up = parent[up]
        return False

    layers: Dict[str, Dict[str, float]] = {}
    ledger: Dict[str, float] = {}
    for index in range(n):
        name = names[name_of[index]]
        duration = end[index] - start[index]
        self_time = duration - child_time[index]
        if name_of[root[index]] == batch_id:
            ledger[name] = ledger.get(name, 0.0) + self_time * 1000.0
        if (name_of[root[index]] == resume_id) != name.startswith(RESUME):
            continue
        entry = layers.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["self_ms"] += self_time * 1000.0
        if not same_name_ancestor(index):
            entry["ms"] += duration * 1000.0
    return {"layers": layers, "ledger": ledger}

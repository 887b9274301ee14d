"""Rule execution and optimization (sections 4 and 5.3).

"A major challenge therefore is to scale up the execution of tens of
thousands to hundreds of thousands of rules. A possible solution is to
index the rules so that given a particular data item, we can quickly locate
and execute only a (hopefully) small set of rules ... Another solution is
to execute the rules in parallel on a cluster of machines."

* :class:`RuleIndex` — inverted index rules-by-anchor-token;
* :class:`DataIndex` — index *items* by token so a rule under development
  can be evaluated against only its plausible matches;
* :class:`NaiveExecutor` / :class:`IndexedExecutor` — measured executors;
* :class:`PartitionedExecutor` — shard items across simulated cluster
  workers (map/reduce over serialized rules and prepared token payloads).

All executors run over :class:`~repro.core.prepared.PreparedItem` views:
each item is normalized/tokenized exactly once per run and every rule
evaluation (and the index probe) shares those views.

The partitioned executor is fault tolerant (§2.2's ongoing-system
requirements): failed shards retry with exponential backoff onto other
workers, stragglers are re-dispatched after a timeout, corrupt shard
output is rejected by driver-side validation, and runs degrade — with an
explicit skip report — instead of raising. See
:mod:`repro.execution.resilience` and the deterministic fault-injection
harness in :mod:`repro.testing.faults`.

For the never-ending deployment (§2.2/§4), the from-scratch executors are
the wrong tool: rule churn and batch arrival change a sliver of the
``rules × items`` grid. :class:`IncrementalExecutor` +
:class:`MatchStore` (see :mod:`repro.execution.incremental`) maintain the
fired map as a materialized view and re-evaluate only the delta.

The compiled execution layer (:mod:`repro.execution.compiler`, DESIGN.md
§11) removes the remaining per-candidate interpretive overhead for batch
runs: :class:`RuleSetCompiler` lowers the whole rule set into one
combined matcher (:class:`CompiledRuleSet` — flattened Aho–Corasick tiers
over a :class:`TokenAutomaton` plus precompiled verification closures),
called directly as ``RuleSetCompiler(...).compile(rules).execute(items)``.

Each executor runs exactly one engine: the incremental, indexed and
partitioned executors are interpreted (the indexed one is the reference
the compiled engine is tested against), and the compiled engine has no
executor wrapper. Their fired maps agree except for short-plural regexes
(``tvs?`` on ``'4k smart tvs'``), which the interpreted anchor index
misses and the compiled engine fires with no evaluation counted. Both
miss some pairs the naive scan fires, e.g. a required literal inside a
longer title token (DESIGN.md §11 lists them).
"""

from repro.core.prepared import (
    PreparedCache,
    PreparedItem,
    prepare,
    prepare_all,
    prepare_cached,
)
from repro.execution.automaton import TokenAutomaton
from repro.execution.compiler import CompiledRuleSet, RuleSetCompiler
from repro.execution.data_index import DataIndex
from repro.execution.executor import ExecutionStats, IndexedExecutor, NaiveExecutor
from repro.execution.incremental import IncrementalExecutor, MatchStore
from repro.execution.parallel import (
    PartitionedExecutor,
    PartitionedRunResult,
    ShardReport,
    critical_path,
)
from repro.execution.resilience import (
    CorruptShardOutput,
    DegradedRunError,
    FaultEvent,
    RetryPolicy,
    ShardFailure,
    WorkerCrash,
    WorkerHang,
    validate_shard_output,
)
from repro.execution.rule_index import RuleIndex, rarest_anchor

__all__ = [
    "CompiledRuleSet",
    "CorruptShardOutput",
    "DataIndex",
    "DegradedRunError",
    "ExecutionStats",
    "FaultEvent",
    "IncrementalExecutor",
    "IndexedExecutor",
    "MatchStore",
    "NaiveExecutor",
    "PartitionedExecutor",
    "PartitionedRunResult",
    "PreparedCache",
    "PreparedItem",
    "RetryPolicy",
    "RuleIndex",
    "RuleSetCompiler",
    "ShardFailure",
    "ShardReport",
    "TokenAutomaton",
    "WorkerCrash",
    "WorkerHang",
    "critical_path",
    "prepare",
    "rarest_anchor",
    "prepare_all",
    "prepare_cached",
    "validate_shard_output",
]

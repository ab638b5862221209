package schema

import "repro/internal/obs"

// Observational-only instrumentation (see internal/obs): racing global
// counters and gauges, never folded into verdicts or deterministic report
// fields — those come from the per-index record fold (foldPrefix).
var (
	// obsSchemasEnumerated counts contexts materialized by the structural
	// pass; obsSchemasSolved counts contexts actually discharged (the two
	// diverge when a counterexample cancels in-flight work).
	obsSchemasEnumerated = obs.Default.Counter("schema", "schemas_enumerated")
	obsSchemasSolved     = obs.Default.Counter("schema", "schemas_solved")
	// obsDeadlinePolls counts Deadline/Stop consultations of the solve
	// queue's claim loop (strided; the per-node SMT polls are counted
	// separately under the smt subsystem).
	obsDeadlinePolls = obs.Default.Counter("schema", "deadline_polls")
	// obsQueueDepth tracks the schemas still unclaimed in the solve queue.
	obsQueueDepth = obs.Default.Gauge("schema", "queue_depth")
	// obsFoldNS records the duration of each deterministic prefix fold.
	obsFoldNS = obs.Default.Histogram("schema", "fold_ns")
	// obsLevelPushes counts guard segments pushed by incremental cursors;
	// obsLevelReplays counts the subset re-pushed only to rebuild a prefix a
	// sibling cursor already had (chunk-boundary replay — pure overhead, so
	// the ratio replays/pushes measures how much sharing the chunking loses).
	obsLevelPushes  = obs.Default.Counter("schema", "level_pushes")
	obsLevelReplays = obs.Default.Counter("schema", "level_replays")
	// obsBoundCuts counts integer-entailed bound cuts asserted at a level
	// after a rational probe refuted one side of a fractional variable.
	obsBoundCuts = obs.Default.Counter("schema", "bound_cuts")
	// obsUnsatLevels counts levels whose rational check condemned their
	// whole subtree (every descendant schema resolved without solver work).
	obsUnsatLevels = obs.Default.Counter("schema", "unsat_levels")
	// obsDeadLevels counts levels below an Unsat one, settled structurally:
	// their slot count read from the table, nothing pushed or encoded.
	obsDeadLevels = obs.Default.Counter("schema", "dead_levels")
)

package smt

import "repro/internal/obs"

// Observational-only counters (see internal/obs: racing global accumulators,
// never folded into verdicts). Each increments alongside the per-solver
// Stats field of the same name; deadline_polls counts actual Deadline/Stop
// consultations, i.e. search events divided by pollStride.
var (
	obsLPChecks      = obs.Default.Counter("smt", "lp_checks")
	obsPivots        = obs.Default.Counter("smt", "pivots")
	obsRebuilds      = obs.Default.Counter("smt", "rebuilds")
	obsBBNodes       = obs.Default.Counter("smt", "bb_nodes")
	obsCaseSplits    = obs.Default.Counter("smt", "case_splits")
	obsDeadlinePolls = obs.Default.Counter("smt", "deadline_polls")
	// obsLazyClones counts tableau copies materialized by clone-on-first-
	// check; Push itself no longer copies, so clones − pushes measures how
	// much the lazy snapshot discipline saves on check-free scopes.
	obsLazyClones = obs.Default.Counter("smt", "lazy_clones")
	// obsRowsCopied counts the rows those clones then materialized by a
	// first write; rows_copied ÷ lazy_clones is how local a search node is.
	obsRowsCopied = obs.Default.Counter("smt", "rows_copied")
)

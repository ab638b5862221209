package cluster

import "repro/internal/obs"

// Cluster metrics are observational by construction: how many leases
// expired or shards were reissued depends on wall-clock schedules and kill
// timing, never on the verdict. The deterministic report section stays
// schedule-independent; these counters land in the observational section.
var (
	obsShardsClaimed   = obs.Default.Counter("cluster", "shards_claimed")
	obsShardsDone      = obs.Default.Counter("cluster", "shards_done")
	obsShardsLocal     = obs.Default.Counter("cluster", "shards_local")
	obsShardsCancelled = obs.Default.Counter("cluster", "shards_cancelled")
	obsLeasesExpired   = obs.Default.Counter("cluster", "leases_expired")
	obsShardsReissued  = obs.Default.Counter("cluster", "shards_reissued")
	obsDuplicateReport = obs.Default.Counter("cluster", "duplicate_reports")
	obsJobsCompleted   = obs.Default.Counter("cluster", "jobs_completed")
	// Bytes of packed records workers reported and of packed contexts leased
	// to them, fsyncs the coordinator asked its journal for (one per
	// journaling request), and journal appends or syncs that failed — each a
	// transition the next restart will not replay.
	obsReportBytes   = obs.Default.Counter("cluster", "report_bytes")
	obsClaimBytes    = obs.Default.Counter("cluster", "claim_bytes")
	obsJournalSyncs  = obs.Default.Counter("cluster", "journal_syncs")
	obsJournalErrors = obs.Default.Counter("cluster", "journal_errors")
)

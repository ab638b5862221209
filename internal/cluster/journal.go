package cluster

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/wal"
)

// Journal record types. The journal is the coordinator's crash story: every
// state transition that must survive a restart is one JSON payload inside a
// WAL frame (internal/wal supplies the length+CRC32C framing and the
// torn-tail truncation rule). Contexts themselves are never journaled — the
// preorder enumeration is deterministic, so the job record stores only the
// payload plus the shard geometry and replay re-derives the rest, validating
// the counts to catch an engine that no longer enumerates the same tree.
const (
	// recJob: a submitted job (payload + shard geometry).
	recJob = "job"
	// recAssign: a lease issued (remote or local). Leases are void across
	// restart — replay keeps only the attempt count.
	recAssign = "assign"
	// recExpire: a lease reclaimed by the sweeper.
	recExpire = "expire"
	// recDone: a shard's integrated records, in the packed form the worker
	// reported them in (the only bulky record).
	recDone = "done"
	// recJobDone: the job folded to a verdict (informational; replay
	// re-folds from the done records).
	recJobDone = "jobdone"
)

// JournalRecord is the union of all journal payloads, exported so tests and
// tooling can assert on reissue histories (a killed worker's shard must show
// assign → expire → assign in order).
type JournalRecord struct {
	T     string `json:"t"`
	Job   string `json:"job,omitempty"`
	Shard int    `json:"shard,omitempty"`

	Worker  string `json:"worker,omitempty"`
	Lease   string `json:"lease,omitempty"`
	Attempt int    `json:"attempt,omitempty"`

	Hash string `json:"hash,omitempty"`
	// Records is a done shard's packRecords bytes (a base64 string in JSON).
	Records []byte `json:"records,omitempty"`

	Payload   *JobPayload `json:"payload,omitempty"`
	ShardSize int         `json:"shard_size,omitempty"`
	Contexts  int         `json:"contexts,omitempty"`
	Truncated bool        `json:"truncated,omitempty"`
	Exceeded  bool        `json:"exceeded,omitempty"`
}

// journaling (mu held) reports whether state transitions are being written
// down: a journal is configured and this is not its own replay (applying a
// journal must not grow it).
func (c *Coordinator) journaling() bool { return c.journal != nil && !c.replaying }

func encodeJournalRec(r *JournalRecord) []byte {
	data, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("cluster: journal marshal: %v", err))
	}
	return data
}

// journalRec appends one record (mu held); commit makes it durable.
func (c *Coordinator) journalRec(r *JournalRecord) {
	if c.journaling() {
		c.journalFrame(encodeJournalRec(r))
	}
}

// journalFrame appends one encoded record (mu held). A failed append is
// logged and counted in cluster/journal_errors and the coordinator carries
// on in memory: the transition is lost to the next restart, nothing else.
// (The log refuses every later append too, so the counter keeps climbing.)
func (c *Coordinator) journalFrame(data []byte) {
	if err := c.journal.Append(data); err != nil {
		obsJournalErrors.Inc()
		c.cfg.Logf("cluster: JOURNAL APPEND FAILED (%v); restart durability lost", err)
		return
	}
	c.unsynced = true
}

// commit (mu held) ends a journaling request: one fsync for everything the
// request appended — a done, the assign riding on it, a jobdone — and only
// then is mu released, so no response leaves before its records are on disk
// and no other request's records slip in between. The log itself is opened
// SyncNever; JournalSync only decides whether this fsync happens.
func (c *Coordinator) commit() {
	if c.unsynced && c.cfg.JournalSync == wal.SyncEachAppend {
		obsJournalSyncs.Inc()
		if err := c.journal.Sync(); err != nil {
			obsJournalErrors.Inc()
			c.cfg.Logf("cluster: JOURNAL SYNC FAILED (%v); restart durability lost", err)
		}
	}
	c.unsynced = false
	c.mu.Unlock()
}

// doneFrame (mu held) encodes a shard's done record ahead of integrating it,
// so a report the journal cannot hold is refused while refusing is still
// possible. Without a live journal there is nothing to encode.
func (c *Coordinator) doneFrame(j *job, s *shard, worker string, packed []byte) ([]byte, error) {
	if !c.journaling() {
		return nil, nil
	}
	frame := encodeJournalRec(&JournalRecord{
		T: recDone, Job: j.id, Shard: s.idx,
		Hash: s.hash, Worker: worker, Records: packed,
	})
	if len(frame) > wal.MaxRecord {
		return nil, errRecordTooLarge
	}
	return frame, nil
}

// parseJournalRec decodes the i-th (1-based) journal payload. Journals
// written before records were packed hold them as a JSON array of objects;
// those are refused by name rather than misread.
func parseJournalRec(i int, payload []byte) (JournalRecord, error) {
	var r JournalRecord
	err := json.Unmarshal(payload, &r)
	var te *json.UnmarshalTypeError
	switch {
	case errors.As(err, &te) && te.Field == "records":
		return r, fmt.Errorf("cluster: journal record %d: records is a JSON array, the form that predates packed records; this journal cannot be replayed — finish it with the binary that wrote it, or remove it", i)
	case err != nil:
		return r, fmt.Errorf("cluster: journal record %d: %w", i, err)
	}
	return r, nil
}

// replay rebuilds coordinator state from a recovered journal. Jobs are
// rebuilt by re-resolving their content-addressed payloads and re-enumerating
// (validated against the journaled geometry); done shards are re-integrated
// through the same code path as live reports, counterexamples re-certified
// and all; leases are void (their workers are gone with the old process), so
// assigned-but-unfinished shards return to pending with their attempt counts
// intact — a shard that exhausted MaxAttempts before the crash stays
// local-only after it.
func (c *Coordinator) replay(rec *wal.Recovery) error {
	if rec == nil || len(rec.Records) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.replaying = true
	defer func() { c.replaying = false }()
	for i, payload := range rec.Records {
		r, err := parseJournalRec(i+1, payload)
		if err != nil {
			return err
		}
		if err := c.apply(&r); err != nil {
			return fmt.Errorf("cluster: journal record %d (%s): %w", i+1, r.T, err)
		}
	}
	// Post-replay invariants: no leases survive a restart, and exhausted
	// shards stay off the remote pool.
	for _, id := range c.order {
		j := c.jobs[id]
		for _, s := range j.shards {
			if s.state == shardLeased {
				s.state = shardPending
				s.lease = ""
			}
			if s.state == shardPending && s.attempt >= c.cfg.MaxAttempts {
				s.localOnly = true
			}
		}
	}
	// The lease ledger must read zero now: replayed assigns never counted, but
	// replayed dones ran through integrate, whose release would otherwise
	// leave the counter negative and pin poolIdle false — a restarted
	// coordinator with a dead worker pool would then never degrade to local.
	c.leases = 0
	c.cfg.Logf("cluster: journal replayed %d records, %d jobs", len(rec.Records), len(c.order))
	return nil
}

func (c *Coordinator) apply(r *JournalRecord) error {
	switch r.T {
	case recJob:
		if r.Payload == nil {
			return fmt.Errorf("job record carries no payload")
		}
		if _, ok := c.jobs[r.Job]; ok {
			return fmt.Errorf("duplicate job %s", r.Job)
		}
		if got := r.Payload.ID(); got != r.Job {
			return fmt.Errorf("payload hashes to %s, journal says %s", got, r.Job)
		}
		j, exceeded, err := c.buildJob(r.Job, *r.Payload, r.ShardSize)
		if err != nil {
			return err
		}
		if exceeded != r.Exceeded {
			return fmt.Errorf("job %s: enumeration exceeded=%v, journal says %v", r.Job, exceeded, r.Exceeded)
		}
		if !exceeded && (len(j.ctxs) != r.Contexts || j.truncated != r.Truncated) {
			return fmt.Errorf("job %s: re-enumeration yields %d contexts (truncated=%v), journal says %d (%v) — engine drift, journal unusable",
				r.Job, len(j.ctxs), j.truncated, r.Contexts, r.Truncated)
		}
		c.installJob(j, exceeded)
		return nil
	case recAssign:
		j, s, err := c.lookup(r)
		if err != nil {
			return err
		}
		_ = j
		if s.state == shardPending {
			s.state = shardLeased // normalized back to pending post-replay
			s.worker = r.Worker
			s.lease = r.Lease
		}
		if r.Worker != localWorkerID {
			s.attempt = r.Attempt
		}
		return nil
	case recExpire:
		_, s, err := c.lookup(r)
		if err != nil {
			return err
		}
		if s.state == shardLeased {
			s.state = shardPending
			s.lease = ""
		}
		return nil
	case recDone:
		j, s, err := c.lookup(r)
		if err != nil {
			return err
		}
		if s.state == shardDone || s.state == shardCancelled || j.finished {
			return nil
		}
		if r.Hash != s.hash {
			return fmt.Errorf("job %s shard %d: journaled hash %s, rebuilt %s", j.id, s.idx, r.Hash, s.hash)
		}
		recs, err := unpackShard(j.a, j.query, r.Records, s.end-s.base)
		if err != nil {
			return fmt.Errorf("job %s shard %d: %w", j.id, s.idx, err)
		}
		c.integrate(j, s, recs, r.Worker, nil)
		return nil
	case recJobDone:
		return nil // verdicts are re-folded from done records, never read back
	default:
		return fmt.Errorf("unknown record type %q", r.T)
	}
}

func (c *Coordinator) lookup(r *JournalRecord) (*job, *shard, error) {
	j, ok := c.jobs[r.Job]
	if !ok {
		return nil, nil, fmt.Errorf("unknown job %s", r.Job)
	}
	if r.Shard < 0 || r.Shard >= len(j.shards) {
		return nil, nil, fmt.Errorf("job %s has no shard %d", r.Job, r.Shard)
	}
	return j, j.shards[r.Shard], nil
}

// ReadJournal decodes every record of a coordinator journal — the assertion
// surface for reissue tests and the post-mortem tool for torture failures.
func ReadJournal(fs wal.FS, dir string) ([]JournalRecord, error) {
	log, rec, err := wal.Open(wal.Options{FS: fs, Dir: dir, Sync: wal.SyncNever})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	out := make([]JournalRecord, 0, len(rec.Records))
	for i, payload := range rec.Records {
		r, err := parseJournalRec(i+1, payload)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

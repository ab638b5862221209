// Package cluster is the fault-tolerant distributed verification plane: a
// coordinator that serializes the deterministic preorder context list of one
// full-enumeration query into content-addressed shards, and worker daemons
// that claim those shards over HTTP under time-bounded leases, solve them,
// and report per-index records. The join reuses the CAS-min first-Sat +
// prefix-fold logic of internal/schema, so the cluster verdict — outcome,
// schema count, average length, solver statistics, counterexample — is
// byte-identical to a single-box `-j N` run at any worker count and under
// any kill schedule. Robustness is the point: assignments are WAL-journaled
// (coordinator restarts resume), expired leases reissue shards with capped
// retries and jittered backoff, and an emptied worker pool degrades to
// solving the leftovers locally.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/ta"
)

// JobPayload names one full-enumeration verification job: a bundled model or
// an inline automaton+spec, and exactly one property. It is the unit of
// content addressing — the job ID is a hash of this struct — so a resubmitted
// payload lands on the same job and a journal replay provably rebuilds the
// same work.
type JobPayload struct {
	// Model is a bundled model name (bv, naive, simplified, strb, bosco).
	// Mutually exclusive with TA.
	Model string `json:"model,omitempty"`
	// TA and Spec carry an inline automaton and LTL property file.
	TA   string `json:"ta,omitempty"`
	Spec string `json:"spec,omitempty"`
	// Prop selects the one property this job checks.
	Prop string `json:"prop"`
	// MaxSchemas bounds the enumeration like schema.Options.MaxSchemas
	// (0 = the paper's 100k cutoff). Exceeding it completes the job
	// immediately with the same Budget verdict a single box reports.
	MaxSchemas int `json:"max_schemas,omitempty"`
	// Truncate, when positive, solves only the first Truncate contexts of
	// the preorder instead of giving up at the structural cutoff (see
	// schema.EnumeratePrefix): the verdict can refute (a Sat in the prefix
	// is a certified violation) but never prove, so a Sat-free prefix folds
	// to the same Budget row the cutoff produces. This is how the cluster
	// bench pushes the naive automaton past its 100k-schema budget.
	Truncate int `json:"truncate,omitempty"`
}

// ID derives the job's content address: equal payloads get equal IDs on any
// coordinator, which makes Submit idempotent and journal replay verifiable.
func (p *JobPayload) ID() string {
	data, _ := json.Marshal(p)
	sum := sha256.Sum256(data)
	return "j" + hex.EncodeToString(sum[:8])
}

// Resolve turns the payload into the automaton, model label, and the single
// query it names, through the resolver every verification entry point shares
// (service.Resolve); a job adds only that it checks exactly one property.
func (p *JobPayload) Resolve() (*ta.TA, string, *spec.Query, error) {
	r, err := service.Resolve(&service.VerifyRequest{
		Model: p.Model, TA: p.TA, Spec: p.Spec, Prop: p.Prop, Mode: schema.FullEnumeration.String(),
	})
	if err != nil {
		return nil, "", nil, err
	}
	if p.Prop == "" {
		return nil, "", nil, fmt.Errorf("request names no property (a cluster job checks exactly one)")
	}
	return r.TA, r.Label, &r.Queries[0], nil
}

// shardHash content-addresses one work unit: the job it belongs to, its base
// preorder index, and the exact guard-index contexts. Results are accepted by
// this hash rather than by lease — per-index records are deterministic, so a
// late report from a lease-lost worker is identical to the reissued one and
// integrating either is safe.
func shardHash(jobID string, base int, ctxs [][]int) string {
	h := sha256.New()
	h.Write([]byte(jobID))
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(base)
	put(len(ctxs))
	for _, ctx := range ctxs {
		put(len(ctx))
		for _, gi := range ctx {
			put(gi)
		}
	}
	return "s" + hex.EncodeToString(h.Sum(nil)[:12])
}

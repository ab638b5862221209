package schema

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/smt"
)

// This file implements the solve phase of full enumeration: an ordered work
// queue that shards the materialized schemas across a pool of solvers.
//
// Determinism argument. The context list is the DFS preorder of one
// sequential walk (FullPlan.walk), fixed by the analysis. The solve phase
// claims indices from a monotonically increasing counter, so when a
// counterexample is found at index i every index j < i has already been
// claimed; the join waits for those solves and the fold (foldPrefix) reports
// the MINIMUM Sat index — the preorder-least, i.e. lexicographically-least
// (by alphabet position, prefix-first) counterexample context. Aggregates
// (schema count, average length, solver stats) are folded over exactly the
// prefix [0, minSat] from per-index records, never from racing worker
// totals, so they are byte-identical to a workers=1 run. Work performed
// beyond the winning index by in-flight workers is discarded.

// phaseAcc accumulates per-schema encode/solve durations across workers.
// Being summed from racing atomic adds, the totals are observational only.
type phaseAcc struct {
	encode atomic.Int64
	solve  atomic.Int64
}

// claimPollStride is how many queue claims elapse between Deadline/Stop
// consultations in the solve loop. Claims are far coarser than SMT search
// events, and the deadline is also threaded into every solve's ClauseLimits
// (where it is polled on the smt stride), so a small stride here suffices:
// each worker polls on its first claim — an expired deadline stops a fresh
// worker immediately — then every claimPollStride-th.
const claimPollStride = 16

// solveChunkSize picks how many contiguous preorder indices a worker claims
// at once. Contiguity is what feeds the incremental cursor: within a chunk
// (and across a lone worker's consecutive chunks) every move to the next
// index is a real preorder step, so only chunk boundaries under contention
// pay prefix replay. Smaller chunks balance better and waste less work past
// an early Sat; the clamp keeps both effects bounded. Records do not depend
// on the chunk size — it only shifts which cursor solves which index.
func solveChunkSize(n, workers int) int {
	if workers <= 1 {
		return n
	}
	c := n / (workers * 8)
	if c < 1 {
		return 1
	}
	if c > 32 {
		return 32
	}
	return c
}

// solveRange is the one solve loop behind Check and SolveRange: workers
// claim contiguous chunks of ctxs (global preorder indices base+i) and
// discharge them, each through its own long-lived incremental cursor,
// writing one IndexRecord per solved index. The first Sat cancels indices
// beyond it; stop and deadline cancel everything (interrupted=true, partial
// records). An error cancels all later work and the preorder-least one
// among those encountered is returned.
func (p *FullPlan) solveRange(ctxs [][]int, base, workers int, deadline time.Time, stop func() bool) (recs []IndexRecord, ph PhaseTimings, interrupted bool, err error) {
	recs = make([]IndexRecord, len(ctxs))
	if len(ctxs) == 0 {
		return recs, ph, false, nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(ctxs) {
		workers = len(ctxs)
	}
	chunk := int64(solveChunkSize(len(ctxs), workers))
	var next, minSat atomic.Int64
	minSat.Store(math.MaxInt64)
	var stopped, failed atomic.Bool
	var acc phaseAcc

	var errMu sync.Mutex
	errIdx := len(ctxs)
	fail := func(i int, e error) {
		errMu.Lock()
		if i < errIdx {
			errIdx, err = i, e
		}
		errMu.Unlock()
		failed.Store(true)
	}

	run := func() {
		claims := 0
		var cur *fullCursor
		for {
			lo := next.Add(chunk) - chunk
			if lo >= int64(len(ctxs)) {
				return
			}
			hi := min(lo+chunk, int64(len(ctxs)))
			for i := int(lo); i < int(hi); i++ {
				if stopped.Load() || failed.Load() {
					return
				}
				if int64(i) > minSat.Load() {
					// minSat only decreases: every index this worker would
					// reach next is even larger, so nothing is left to do.
					return
				}
				obsQueueDepth.Set(int64(len(ctxs) - i))
				claims++
				if claims%claimPollStride == 1 || claimPollStride == 1 {
					// Strided: polling time.Now() on every claim shows up
					// when schemas are tiny. Expiry mid-solve is still
					// caught by the smt-level strided poll.
					obsDeadlinePolls.Inc()
					if stop != nil && stop() {
						stopped.Store(true)
						return
					}
					if !deadline.IsZero() && time.Now().After(deadline) {
						stopped.Store(true)
						return
					}
				}
				if cur == nil {
					c, cerr := p.e.newFullCursor(p.an, deadline)
					if cerr != nil {
						fail(i, cerr)
						return
					}
					cur = c
				}
				rec, serr := cur.solveAt(ctxs[i], base+i, &acc)
				if serr != nil {
					fail(i, serr)
					return
				}
				obsSchemasSolved.Inc()
				recs[i] = rec
				if rec.Status == smt.Sat {
					for {
						m := minSat.Load()
						if int64(i) >= m || minSat.CompareAndSwap(m, int64(i)) {
							break
						}
					}
				}
			}
		}
	}
	if workers == 1 {
		run()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
		wg.Wait()
	}
	if err != nil {
		return nil, ph, false, err
	}
	ph = PhaseTimings{
		Encode: time.Duration(acc.encode.Load()),
		Solve:  time.Duration(acc.solve.Load()),
	}
	return recs, ph, stopped.Load(), nil
}

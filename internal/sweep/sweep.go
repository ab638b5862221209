// Package sweep is the one seed loop of the repository's seeded campaigns:
// the chaos and storage-torture campaigns of internal/faults and the queue
// and cluster torture campaigns all run their seeds through Run. It imports
// only the standard library.
package sweep

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Run runs fn for every index in [0, runs) across a pool of workers
// (workers <= 1 = sequential), polling stop before each run. Indices are
// claimed from a monotonically increasing counter, so when stop fires every
// index below the first unstarted one has been claimed; runs that were
// in flight finish normally. It returns the results of the longest
// contiguous completed prefix, the index of the first run NOT included
// (== runs when everything completed), and whether the sweep was cut short.
//
// Aggregating only the contiguous prefix keeps parallel campaigns
// deterministic and resume-exact: the fold visits seeds in order, and a
// rerun starting from the returned index covers exactly the runs that were
// not aggregated — completed-but-past-the-gap work is discarded rather than
// double-counted after a resume.
func Run[T any](runs, workers int, stop func() bool, fn func(i int) T) ([]T, int, bool) {
	if runs < 0 {
		runs = 0
	}
	if workers < 1 {
		workers = 1
	}
	if workers > runs {
		workers = runs
	}
	out := make([]T, runs)
	done := make([]bool, runs) // each slot written by its claiming worker only
	var next atomic.Int64
	var stopped atomic.Bool
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= runs || stopped.Load() {
				return
			}
			if stop != nil && stop() {
				stopped.Store(true)
				return
			}
			out[i] = fn(i)
			done[i] = true
		}
	}
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	n := 0
	for n < runs && done[n] {
		n++
	}
	return out[:n], n, n < runs
}

// Violation is one seed that broke a campaign's guarantee. The seed is the
// replay handle: rerun the campaign with BaseSeed=Seed, Runs=1 to reproduce
// the schedule exactly.
type Violation struct {
	Seed   int64
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("seed %d: %s", v.Seed, v.Detail)
}

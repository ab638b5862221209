package sweep

import (
	"sync"
	"testing"
)

// TestRunSeedOrderWhenLowerFinishLast: every index waits for the one above
// it, so completion runs from the highest index down; the results still come
// back in index order.
func TestRunSeedOrderWhenLowerFinishLast(t *testing.T) {
	const runs = 8
	finished := make([]chan struct{}, runs+1)
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	close(finished[runs])
	var mu sync.Mutex
	var order []int
	out, next, interrupted := Run(runs, runs, nil, func(i int) int {
		<-finished[i+1]
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		close(finished[i])
		return i
	})
	if interrupted || next != runs || len(out) != runs {
		t.Fatalf("out=%v next=%d interrupted=%v", out, next, interrupted)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d]=%d, want %d (results %v)", i, v, i, out)
		}
	}
	for k, i := range order {
		if i != runs-1-k {
			t.Fatalf("completion order %v, want highest index first", order)
		}
	}
}

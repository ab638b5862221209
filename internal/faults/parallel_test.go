package faults

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/sweep"
)

// The TestRunIndexed* tests drive sweep.Run, the seed loop under Campaign.Run.

// TestRunIndexedComplete: without a stop, every worker count yields the full
// result set in index order.
func TestRunIndexedComplete(t *testing.T) {
	const runs = 37
	for _, workers := range []int{1, 4, 8, 64} {
		out, next, interrupted := sweep.Run(runs, workers, nil, func(i int) int { return i * i })
		if interrupted {
			t.Fatalf("workers=%d: interrupted without a stop", workers)
		}
		if next != runs {
			t.Fatalf("workers=%d: next=%d, want %d", workers, next, runs)
		}
		if len(out) != runs {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(out), runs)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestRunIndexedStop: a stop that fires mid-sweep yields a contiguous prefix
// whose values are all correct, and a resume point that covers the rest.
func TestRunIndexedStop(t *testing.T) {
	const runs = 100
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		stop := func() bool { return calls.Add(1) > 20 }
		out, next, interrupted := sweep.Run(runs, workers, stop, func(i int) int { return i + 1 })
		if !interrupted {
			t.Fatalf("workers=%d: stop fired but not interrupted", workers)
		}
		if next != len(out) {
			t.Fatalf("workers=%d: next=%d but prefix has %d results", workers, next, len(out))
		}
		if next >= runs {
			t.Fatalf("workers=%d: next=%d, want < %d", workers, next, runs)
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: out[%d]=%d, want %d", workers, i, v, i+1)
			}
		}
	}
}

// TestRunIndexedEmpty: zero (and negative) runs are a clean no-op.
func TestRunIndexedEmpty(t *testing.T) {
	for _, runs := range []int{0, -3} {
		out, next, interrupted := sweep.Run(runs, 4, nil, func(i int) int { return i })
		if len(out) != 0 || next != 0 || interrupted {
			t.Fatalf("runs=%d: out=%v next=%d interrupted=%v", runs, out, next, interrupted)
		}
	}
}

// TestCampaignWorkersDeterministic: the chaos campaign aggregate is identical
// at any worker count — same counts, same events, same violations.
func TestCampaignWorkersDeterministic(t *testing.T) {
	base := Campaign{Runs: 12, BaseSeed: 77, N: 4, T: 1, MaxRounds: 8, MaxSteps: 60_000}
	seq := base
	seq.Workers = 1
	want := seq.Run()
	for _, workers := range []int{2, 8} {
		c := base
		c.Workers = workers
		got := c.Run()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: result %+v, want %+v", workers, got, want)
		}
	}
}

// TestTortureWorkersDeterministic: same for the storage-fault torture
// campaign over durable replicas.
func TestTortureWorkersDeterministic(t *testing.T) {
	base := Campaign{Runs: 6, BaseSeed: 5, N: 4, T: 1, MaxRounds: 8, Durable: true}
	seq := base
	seq.Workers = 1
	want := seq.Run()
	for _, workers := range []int{2, 8} {
		c := base
		c.Workers = workers
		got := c.Run()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: result %+v, want %+v", workers, got, want)
		}
	}
}

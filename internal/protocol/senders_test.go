package protocol

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/network"
)

// encProcSetMap is the map-based sender-set encoder SenderSet replaced, kept
// as the reference the dense encoder must match byte for byte.
func encProcSetMap(e *Enc, set map[network.ProcID]bool) {
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	e.Ints(ids)
}

// TestSenderStateMatchesMapReference drives a SenderSet and a FirstTable
// with random id streams, duplicates included, beside the maps and arrival
// slice they replaced: every Add must report the same novelty, Len, Has and
// Get must agree after each step, the arrival order must be the reference
// order, and the set must encode to the reference encoder's bytes and decode
// back to itself.
func TestSenderStateMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(200)
		set := NewSenderSet(n)
		table := NewFirstTable(n)
		refSet := map[network.ProcID]bool{}
		refFirst := map[network.ProcID]uint8{}
		var refOrder []network.ProcID

		for step, steps := 0, rng.Intn(3*n); step < steps; step++ {
			// Half the draws come from a small pool, so repeats are common.
			id := network.ProcID(rng.Intn(n))
			if rng.Intn(2) == 0 {
				id = network.ProcID(rng.Intn(min(n, 8)))
			}
			if got, want := set.Add(id), !refSet[id]; got != want {
				t.Fatalf("n=%d: SenderSet.Add(%d) = %v, want %v", n, id, got, want)
			}
			refSet[id] = true
			code := uint8(rng.Intn(255))
			_, seen := refFirst[id]
			if got := table.Add(id, code); got != !seen {
				t.Fatalf("n=%d: FirstTable.Add(%d) = %v, want %v", n, id, got, !seen)
			}
			if !seen {
				refFirst[id] = code
				refOrder = append(refOrder, id)
			}
			if set.Len() != len(refSet) || table.Len() != len(refFirst) {
				t.Fatalf("n=%d: Len %d / %d, want %d / %d", n, set.Len(), table.Len(), len(refSet), len(refFirst))
			}
		}
		for id := network.ProcID(-70); int(id) < n+70; id++ {
			if set.Has(id) != refSet[id] {
				t.Fatalf("n=%d: Has(%d) = %v", n, id, set.Has(id))
			}
			code, ok := table.Get(id)
			want, wantOK := refFirst[id]
			if ok != wantOK || code != want {
				t.Fatalf("n=%d: Get(%d) = %d, %v, want %d, %v", n, id, code, ok, want, wantOK)
			}
		}
		if !slices.Equal(table.Order(), refOrder) {
			t.Fatalf("n=%d: order %v, want %v", n, table.Order(), refOrder)
		}

		var got, want Enc
		got.ProcSet(set)
		encProcSetMap(&want, refSet)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: ProcSet encodes %x, the map encoder %x", n, got.Bytes(), want.Bytes())
		}
		d := &Dec{b: got.Bytes()}
		back := d.ProcSet("sender", n)
		if err := d.Finish("set"); err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		var again Enc
		again.ProcSet(back)
		if back.Len() != set.Len() || !bytes.Equal(again.Bytes(), got.Bytes()) {
			t.Fatalf("n=%d: set did not survive a round trip", n)
		}
	}
}

// TestDecProcSetRejectsOutsideIDs: a decoded sender set holds ids in
// [0, n) only, so a hostile snapshot cannot make it grow past n.
func TestDecProcSetRejectsOutsideIDs(t *testing.T) {
	for _, ids := range [][]int{{4}, {0, 2, 9}, {-1}, {-5, 0}} {
		var e Enc
		e.Ints(ids)
		d := &Dec{b: e.Bytes()}
		d.ProcSet("sender", 4)
		if err := d.Finish("set"); err == nil || !strings.Contains(err.Error(), "outside [0, 4)") {
			t.Errorf("ids %v over [0, 4): error %v, want one naming the range", ids, err)
		}
	}
}

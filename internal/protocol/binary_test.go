package protocol

import (
	"testing"

	"repro/internal/network"
)

// TestSetMask: a value set reads as the mask of its members, and an empty
// set or one naming a value other than 0 and 1 as 0 — whatever order and
// repeats the sender's list had.
func TestSetMask(t *testing.T) {
	cases := []struct {
		in   []int
		want valueMask
	}{
		{[]int{0}, 1},
		{[]int{1}, 2},
		{[]int{1, 0, 1}, 3},
		{[]int{0, 0, 1}, 3}, // duplicates collapse
		{[]int{2}, 0},
		{[]int{-1}, 0}, // negative values are malformed, not an index panic
		{[]int{}, 0},
		{nil, 0},
		{[]int{1, 7}, 0},
		{[]int{0, 1, 2}, 0}, // one bad value poisons the whole set
	}
	for _, c := range cases {
		if got := setMask(network.SetOf(c.in...)); got != c.want {
			t.Errorf("setMask(%v) = %d, want %d", c.in, got, c.want)
		}
	}
	for mask := range valueMask(4) {
		if got := setMask(mask); got != mask {
			t.Errorf("setMask(%d) = %d: a well-formed mask reads as itself", mask, got)
		}
	}
}

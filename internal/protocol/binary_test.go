package protocol

import (
	"slices"
	"testing"
)

// TestSetMask: a value set reads as the mask of its members, an empty set or
// one naming a value other than 0 and 1 as 0, and every nonempty mask maps
// back to its canonical set — sorted, without repeats — capacity-capped, so
// an append to a shared set copies instead of writing it.
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
		if got := setMask(c.in); got != c.want {
			t.Errorf("setMask(%v) = %d, want %d", c.in, got, c.want)
		}
	}
	for mask, want := range [][]int{nil, {0}, {1}, {0, 1}} {
		set := maskSets[mask]
		if !slices.Equal(set, want) || setMask(set) != valueMask(mask) {
			t.Errorf("maskSets[%d] = %v, want %v", mask, set, want)
		}
		if cap(set) != len(set) {
			t.Errorf("maskSets[%d] has capacity %d past its length %d: an append would write the shared set", mask, cap(set), len(set))
		}
	}
}

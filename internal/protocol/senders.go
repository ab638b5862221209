package protocol

import "repro/internal/network"

// This file is the dense per-round sender state every front-end keeps: the
// "t+1 / 2t+1 distinct senders" counters of the thresholds and the
// first-message-per-sender tables, over the process set [0, n) the way the
// threshold automata count them. A sender outside [0, n) is malformed input:
// handlers drop it before it reaches these types, and the snapshot decoders
// refuse it, so neither grows beyond n.

// SenderSet is a set of process ids in [0, n): a bitset plus its count.
type SenderSet struct {
	words []uint64
	n     int
}

// NewSenderSet returns an empty set over [0, n).
func NewSenderSet(n int) SenderSet {
	return SenderSet{words: make([]uint64, (n+63)/64)}
}

// Add inserts id and reports whether it was new. id must lie in [0, n).
func (s *SenderSet) Add(id network.ProcID) bool {
	w, bit := id/64, uint64(1)<<(id%64)
	if s.words[w]&bit != 0 {
		return false
	}
	s.words[w] |= bit
	s.n++
	return true
}

// Has reports whether id is in the set; an id outside [0, n) never is.
func (s *SenderSet) Has(id network.ProcID) bool {
	w := int(id / 64)
	return id >= 0 && w < len(s.words) && s.words[w]&(1<<(id%64)) != 0
}

// Len is the number of ids in the set.
func (s *SenderSet) Len() int { return s.n }

// FirstTable records the first message of each sender in [0, n), reduced to
// a small code the front-end chooses (below 255), and the senders in arrival
// order.
type FirstTable struct {
	slots []uint8 // code+1 per sender; 0 = nothing recorded yet
	order []network.ProcID
}

// NewFirstTable returns an empty table over [0, n).
func NewFirstTable(n int) FirstTable {
	return FirstTable{slots: make([]uint8, n)}
}

// Add records code as id's first message and reports whether it was the
// first: a later Add for the same id changes nothing. id must lie in
// [0, n) and code below 255.
func (t *FirstTable) Add(id network.ProcID, code uint8) bool {
	if t.slots[id] != 0 {
		return false
	}
	t.slots[id] = code + 1
	t.order = append(t.order, id)
	return true
}

// Get returns id's recorded code, if any.
func (t *FirstTable) Get(id network.ProcID) (code uint8, ok bool) {
	if id < 0 || int(id) >= len(t.slots) || t.slots[id] == 0 {
		return 0, false
	}
	return t.slots[id] - 1, true
}

// Len is the number of senders recorded.
func (t *FirstTable) Len() int { return len(t.order) }

// Order returns the recorded senders in arrival order. The slice is the
// table's own: callers read it and never write it.
func (t *FirstTable) Order() []network.ProcID { return t.order }

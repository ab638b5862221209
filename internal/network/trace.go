package network

import (
	"fmt"
	"strings"
)

// FormatTrace renders a delivered-message trace as a numbered timeline.
// limit > 0 truncates the output (with a summary line); 0 prints everything.
func FormatTrace(msgs []Message, limit int) string {
	var b strings.Builder
	n := len(msgs)
	shown := n
	if limit > 0 && limit < n {
		shown = limit
	}
	for i := 0; i < shown; i++ {
		fmt.Fprintf(&b, "%4d  %s\n", i+1, msgs[i])
	}
	if shown < n {
		fmt.Fprintf(&b, "      ... %d more deliveries\n", n-shown)
	}
	return b.String()
}

// TraceStats summarizes a trace: deliveries by kind and by round.
type TraceStats struct {
	Total    int
	ByKind   map[MsgKind]int
	ByRound  map[int]int
	MaxRound int
}

// SummarizeTrace computes delivery statistics.
func SummarizeTrace(msgs []Message) TraceStats {
	s := TraceStats{ByKind: map[MsgKind]int{}, ByRound: map[int]int{}}
	for _, m := range msgs {
		s.Total++
		s.ByKind[m.Kind]++
		s.ByRound[m.Round]++
		if m.Round > s.MaxRound {
			s.MaxRound = m.Round
		}
	}
	return s
}

// Format renders the statistics.
func (s TraceStats) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d deliveries", s.Total)
	for k := MsgBV; int(k) < len(kindNames); k++ {
		if c := s.ByKind[k]; c > 0 {
			fmt.Fprintf(&b, ", %d %s", c, k)
		}
	}
	fmt.Fprintf(&b, "; rounds 0..%d:", s.MaxRound)
	for r := 0; r <= s.MaxRound; r++ {
		fmt.Fprintf(&b, " %d", s.ByRound[r])
	}
	return b.String()
}

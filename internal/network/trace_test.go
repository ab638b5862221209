package network

import (
	"strings"
	"testing"
)

func TestFormatTrace(t *testing.T) {
	msgs := []Message{
		{From: 0, To: 1, Round: 0, Kind: MsgBV, Value: 1},
		{From: 1, To: 0, Round: 0, Kind: MsgAux, Set: SetBoth},
		{From: 2, To: 0, Round: 1, Kind: MsgBV, Value: 0},
	}
	out := FormatTrace(msgs, 0)
	if strings.Count(out, "\n") != 3 {
		t.Errorf("expected 3 lines:\n%s", out)
	}
	trunc := FormatTrace(msgs, 2)
	if !strings.Contains(trunc, "1 more deliveries") {
		t.Errorf("missing truncation note:\n%s", trunc)
	}
	if FormatTrace(nil, 5) != "" {
		t.Error("empty trace should render empty")
	}
}

func TestSummarizeTrace(t *testing.T) {
	msgs := []Message{
		{Kind: MsgBV, Round: 0},
		{Kind: MsgBV, Round: 1},
		{Kind: MsgAux, Round: 1},
		{Kind: MsgVote, Round: 0},
	}
	s := SummarizeTrace(msgs)
	if s.Total != 4 || s.MaxRound != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.ByKind[MsgBV] != 2 || s.ByKind[MsgAux] != 1 || s.ByKind[MsgVote] != 1 {
		t.Errorf("by kind = %v", s.ByKind)
	}
	out := s.Format()
	for _, want := range []string{"4 deliveries", "2 BV", "1 AUX", "1 VOTE", "rounds 0..1"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q: %s", want, out)
		}
	}
}

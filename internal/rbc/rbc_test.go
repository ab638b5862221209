package rbc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/network"
)

// process is one participant of a test run: a host or an adversary.
type process interface {
	ID() network.ProcID
	Start(send Sender)
	Deliver(m Message, send Sender)
}

// run delivers pending messages one at a time, the one at index
// pick(len(pending)) next, until none is left; it fails the test if
// maxSteps deliveries do not drain the run.
func run(t *testing.T, procs []process, pick func(pending int) int, maxSteps int) {
	t.Helper()
	byID := make(map[network.ProcID]process, len(procs))
	var pending []Message
	send := func(m Message) { pending = append(pending, m) }
	for _, p := range procs {
		byID[p.ID()] = p
	}
	for _, p := range procs {
		p.Start(send)
	}
	for step := 0; len(pending) > 0; step++ {
		if step == maxSteps {
			t.Fatalf("%d messages still pending after %d deliveries", len(pending), maxSteps)
		}
		i := pick(len(pending))
		m := pending[i]
		pending = append(pending[:i], pending[i+1:]...)
		if p, ok := byID[m.To]; ok {
			p.Deliver(m, send)
		}
	}
}

// fifo delivers the oldest pending message first.
func fifo(int) int { return 0 }

// host wraps an RBC instance as a process for the tests.
type host struct {
	id        network.ProcID
	rbc       *RBC
	proposal  string
	delivered map[network.ProcID]string
}

func newHost(id network.ProcID, n, t int, all []network.ProcID, proposal string) *host {
	h := &host{id: id, proposal: proposal, delivered: map[network.ProcID]string{}}
	h.rbc = &RBC{
		Me: id, N: n, T: t, All: all,
		OnDeliver: func(p network.ProcID, payload string, _ Sender) {
			h.delivered[p] = payload
		},
	}
	return h
}

func (h *host) ID() network.ProcID { return h.id }
func (h *host) Start(send Sender) {
	if h.proposal != "" {
		h.rbc.Propose(h.proposal, send)
	}
}
func (h *host) Deliver(m Message, send Sender) {
	_, _ = h.rbc.Handle(m, send)
}

func ids(n int) []network.ProcID {
	out := make([]network.ProcID, n)
	for i := range out {
		out[i] = network.ProcID(i)
	}
	return out
}

// TestAllCorrectDeliverAll: with correct proposers only, every process
// delivers every proposal (validity + totality).
func TestAllCorrectDeliverAll(t *testing.T) {
	const n, tt = 4, 1
	all := ids(n)
	hosts := make([]*host, n)
	procs := make([]process, n)
	for i := range hosts {
		hosts[i] = newHost(all[i], n, tt, all, string(rune('a'+i)))
		procs[i] = hosts[i]
	}
	run(t, procs, fifo, 100000)
	for _, h := range hosts {
		if len(h.delivered) != n {
			t.Errorf("process %d delivered %d proposals, want %d: %v", h.id, len(h.delivered), n, h.delivered)
		}
		for p, payload := range h.delivered {
			if want := string(rune('a' + int(p))); payload != want {
				t.Errorf("process %d delivered %q for proposer %d, want %q", h.id, payload, p, want)
			}
		}
	}
}

// equivocator sends PROP("x") to half the processes and PROP("y") to the
// rest, echoing nothing itself.
type equivocator struct {
	id  network.ProcID
	all []network.ProcID
}

func (e *equivocator) ID() network.ProcID { return e.id }
func (e *equivocator) Start(send Sender) {
	for _, to := range e.all {
		if to == e.id {
			continue
		}
		payload := "x"
		if to%2 == 0 {
			payload = "y"
		}
		send(Message{From: e.id, To: to, Kind: Prop, Proposer: e.id, Payload: payload})
	}
}
func (e *equivocator) Deliver(Message, Sender) {}

// TestEquivocatingProposerAgreement: a Byzantine proposer sending different
// payloads to different processes cannot make two correct processes deliver
// different values for it (agreement), under randomized schedules.
func TestEquivocatingProposerAgreement(t *testing.T) {
	prop := func(seed int64) bool {
		const n, tt = 4, 1
		all := ids(n)
		hosts := make([]*host, 3)
		procs := make([]process, 0, n)
		for i := 0; i < 3; i++ {
			hosts[i] = newHost(all[i], n, tt, all, "") // no own proposal
			procs = append(procs, hosts[i])
		}
		procs = append(procs, &equivocator{id: 3, all: all})
		rng := rand.New(rand.NewSource(seed))
		run(t, procs, rng.Intn, 100000)
		seen := ""
		for _, h := range hosts {
			if v, ok := h.delivered[3]; ok {
				if seen == "" {
					seen = v
				} else if v != seen {
					t.Logf("replay with: seed=%d", seed)
					return false // disagreement!
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestForgedIntroductionIgnored: a PROP message whose From differs from the
// claimed proposer is discarded, so a Byzantine process cannot speak for a
// correct one.
func TestForgedIntroductionIgnored(t *testing.T) {
	const n, tt = 4, 1
	all := ids(n)
	h := newHost(0, n, tt, all, "")
	var sent []Message
	send := func(m Message) { sent = append(sent, m) }
	h.Deliver(Message{From: 3, Kind: Prop, Proposer: 1, Payload: "forged"}, send)
	if len(sent) != 0 {
		t.Errorf("forged introduction triggered %d messages", len(sent))
	}
}

// TestReadyAmplification: t+1 READYs are enough to join the ready quorum,
// 2t+1 to deliver — even without receiving the PROP at all.
func TestReadyAmplification(t *testing.T) {
	const n, tt = 4, 1
	all := ids(n)
	h := newHost(0, n, tt, all, "")
	var sent []Message
	send := func(m Message) { sent = append(sent, m) }

	h.Deliver(Message{From: 1, Kind: Ready, Proposer: 2, Payload: "v"}, send)
	if len(sent) != 0 {
		t.Fatalf("one READY should not trigger anything, got %d messages", len(sent))
	}
	h.Deliver(Message{From: 2, Kind: Ready, Proposer: 2, Payload: "v"}, send)
	// t+1 = 2 READYs: the host joins with its own READY broadcast (n copies).
	if len(sent) != n {
		t.Fatalf("after t+1 READYs: %d messages, want %d (own READY broadcast)", len(sent), n)
	}
	if h.rbc.Delivered(2) {
		t.Fatal("must not deliver before 2t+1 READYs")
	}
	h.Deliver(Message{From: 3, Kind: Ready, Proposer: 2, Payload: "v"}, send)
	if !h.rbc.Delivered(2) {
		t.Fatal("2t+1 READYs must deliver")
	}
	if got := h.delivered[2]; got != "v" {
		t.Errorf("delivered %q, want v", got)
	}
	// Integrity: a second quorum for a different payload cannot deliver.
	for _, from := range []network.ProcID{0, 1, 2} {
		h.Deliver(Message{From: from, Kind: Ready, Proposer: 2, Payload: "other"}, send)
	}
	if got := h.delivered[2]; got != "v" {
		t.Errorf("second delivery changed payload to %q", got)
	}
}

// splitBrainAdversary mounts the n=5 attack that a 2t+1 echo quorum would
// fall for: it PROPoses, ECHOes and READYs payload "x" to processes {0,1}
// and payload "y" to {2,3}. With the correct ⌈(n+t+1)/2⌉ quorum the echo
// counts (3 of 4 needed) never reach READY and nobody delivers.
type splitBrainAdversary struct {
	id  network.ProcID
	all []network.ProcID
}

func (a *splitBrainAdversary) ID() network.ProcID { return a.id }
func (a *splitBrainAdversary) Start(send Sender) {
	for _, to := range a.all {
		if to == a.id {
			continue
		}
		payload := "x"
		if to >= 2 {
			payload = "y"
		}
		for _, kind := range []Kind{Prop, Echo, Ready} {
			send(Message{From: a.id, To: to, Kind: kind, Proposer: a.id, Payload: payload})
		}
	}
}
func (a *splitBrainAdversary) Deliver(Message, Sender) {}

// TestEchoQuorumPreventsSplitBrain is the regression test for the echo
// quorum: at n=5, t=1, a fully equivocating proposer (who also echoes and
// readies both payloads) must not make correct processes deliver different
// values. With the buggy 2t+1 threshold processes {0,1} delivered "x" while
// {2,3} delivered "y".
func TestEchoQuorumPreventsSplitBrain(t *testing.T) {
	const n, tt = 5, 1
	all := ids(n)
	hosts := make([]*host, 4)
	procs := make([]process, 0, n)
	for i := 0; i < 4; i++ {
		hosts[i] = newHost(all[i], n, tt, all, "")
		procs = append(procs, hosts[i])
	}
	procs = append(procs, &splitBrainAdversary{id: 4, all: all})
	run(t, procs, fifo, 100000)
	seen := ""
	for _, h := range hosts {
		if v, ok := h.delivered[4]; ok {
			if seen == "" {
				seen = v
			} else if v != seen {
				t.Fatalf("split brain: %q and %q both delivered for proposer 4", seen, v)
			}
		}
	}
}

// TestEchoQuorumValue pins the quorum formula at a few sizes.
func TestEchoQuorumValue(t *testing.T) {
	cases := []struct{ n, t, want int }{
		{4, 1, 3}, // minimal n: equals 2t+1
		{5, 1, 4}, // larger n: strictly more than 2t+1
		{7, 2, 5},
		{8, 2, 6},
	}
	for _, c := range cases {
		r := &RBC{N: c.n, T: c.t}
		if got := r.echoQuorum(); got != c.want {
			t.Errorf("n=%d t=%d: quorum %d, want %d", c.n, c.t, got, c.want)
		}
	}
}

package dbft

import (
	"fmt"
	"sort"

	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/rbc"
)

// VectorProcess implements the DBFT vector (multivalued) consensus that the
// Red Belly Blockchain runs on top of the verified binary consensus: every
// process reliably broadcasts a proposal, one binary consensus instance per
// proposer decides whether that proposal enters the output, and the decision
// is the vector of accepted proposals.
//
// Protocol (Crain et al., "DBFT: Efficient leaderless Byzantine consensus"):
//
//  1. reliably broadcast your proposal (Bracha RBC, internal/rbc);
//  2. on RBC-delivery of proposer i's value, input 1 to binary instance i;
//  3. once n-t instances have decided 1, input 0 to every instance not yet
//     started;
//  4. when all n instances have decided and every accepted proposal has been
//     RBC-delivered (RBC totality guarantees it will be), output the
//     proposals of the 1-deciding instances, ordered by proposer id.
//
// Safety is inherited: binary agreement per instance plus RBC agreement per
// proposer imply that all correct processes output the same vector, and
// every output value was proposed. Liveness holds under the bv-broadcast
// fairness assumption, instance-wise.
type VectorProcess struct {
	id  network.ProcID
	cfg Config
	all []network.ProcID

	rbc           *rbc.RBC
	proposalValue string
	proposals     map[int]string // instance (proposer id) -> delivered payload

	instances map[int]*Process
	pending   map[int][]network.Message // buffered BV/AUX per unstarted instance
	zeroFill  bool                      // step 3 executed

	output  []string
	decided bool

	// retx is the one quiet-period timer that drives retransmission of the
	// RBC layer and of every started binary instance.
	retx protocol.Timer
}

var _ network.Process = (*VectorProcess)(nil)
var _ network.Ticker = (*VectorProcess)(nil)

// NewVectorProcess builds a correct vector-consensus participant proposing
// the given payload.
func NewVectorProcess(id network.ProcID, proposal string, cfg Config, all []network.ProcID) (*VectorProcess, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	v := &VectorProcess{
		id:        id,
		cfg:       cfg,
		all:       append([]network.ProcID(nil), all...),
		proposals: make(map[int]string),
		instances: make(map[int]*Process),
		pending:   make(map[int][]network.Message),
	}
	v.rbc = &rbc.RBC{
		Me: id, N: cfg.N, T: cfg.T, All: v.all,
		OnDeliver: func(proposer network.ProcID, payload string, send network.Sender) {
			v.proposals[int(proposer)] = payload
			v.startInstance(int(proposer), 1, send)
			v.checkProgress(send)
		},
	}
	v.proposalValue = proposal
	return v, nil
}

// ID implements network.Process.
func (v *VectorProcess) ID() network.ProcID { return v.id }

// Decided returns the output vector once every instance has decided.
func (v *VectorProcess) Decided() ([]string, bool) {
	return v.output, v.decided
}

// Start implements network.Process: reliably broadcast the proposal.
func (v *VectorProcess) Start(send network.Sender) {
	v.rbc.Propose(v.proposalValue, send)
}

// OnTick implements network.Ticker: one capped-backoff timer drives
// retransmission of the RBC dissemination layer and of every started binary
// instance, so the whole vector consensus tolerates lossy links.
func (v *VectorProcess) OnTick(step int, send network.Sender) {
	if !v.retx.Due() {
		return
	}
	v.rbc.Retransmit(send)
	// Deterministic instance order: map iteration would scramble the enqueue
	// order and break replayability.
	keys := make([]int, 0, len(v.instances))
	for k := range v.instances {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		v.instances[k].Retransmit(send)
	}
}

// Deliver implements network.Process.
func (v *VectorProcess) Deliver(m network.Message, send network.Sender) {
	v.retx.SawTraffic()
	handled, err := v.rbc.Handle(m, send)
	if err != nil {
		// A delivery with no handler is a programming error; surface it by
		// refusing further progress (tests assert on Decided).
		return
	}
	if handled {
		v.checkProgress(send)
		return
	}
	switch m.Kind {
	case network.MsgBV, network.MsgAux:
		inst, ok := v.instances[m.Instance]
		if !ok {
			if m.Instance >= 0 && m.Instance < v.cfg.N {
				v.pending[m.Instance] = append(v.pending[m.Instance], m)
			}
			return
		}
		inst.Deliver(m, send)
		v.checkProgress(send)
	}
}

// startInstance launches binary instance i with the given input and replays
// its buffered messages.
func (v *VectorProcess) startInstance(i, input int, send network.Sender) {
	if _, ok := v.instances[i]; ok || i < 0 || i >= v.cfg.N {
		return
	}
	inst, err := NewProcessInstance(v.id, input, v.cfg, v.all, i)
	if err != nil {
		return // cfg was validated; unreachable
	}
	v.instances[i] = inst
	inst.Start(send)
	for _, m := range v.pending[i] {
		inst.Deliver(m, send)
	}
	delete(v.pending, i)
}

// checkProgress applies steps 3 and 4.
func (v *VectorProcess) checkProgress(send network.Sender) {
	if v.decided {
		return
	}
	ones := 0
	for _, inst := range v.instances {
		if val, _, ok := inst.Decided(); ok && val == 1 {
			ones++
		}
	}
	// Step 3: enough accepted instances — stop waiting for the stragglers.
	if ones >= v.cfg.N-v.cfg.T && !v.zeroFill {
		v.zeroFill = true
		for i := 0; i < v.cfg.N; i++ {
			v.startInstance(i, 0, send)
		}
	}
	// Step 4: all instances decided and accepted proposals delivered.
	if len(v.instances) < v.cfg.N {
		return
	}
	var accepted []int
	for i := 0; i < v.cfg.N; i++ {
		val, _, ok := v.instances[i].Decided()
		if !ok {
			return
		}
		if val == 1 {
			accepted = append(accepted, i)
		}
	}
	for _, i := range accepted {
		if _, ok := v.proposals[i]; !ok {
			return // RBC totality will deliver it eventually
		}
	}
	sort.Ints(accepted)
	v.output = v.output[:0]
	for _, i := range accepted {
		v.output = append(v.output, v.proposals[i])
	}
	v.decided = true
}

// VectorAgreement checks that all decided processes output identical
// vectors.
func VectorAgreement(procs []*VectorProcess) error {
	var ref []string
	var refID network.ProcID
	for _, p := range procs {
		out, ok := p.Decided()
		if !ok {
			continue
		}
		if ref == nil {
			ref, refID = out, p.ID()
			continue
		}
		if len(out) != len(ref) {
			return fmt.Errorf("dbft: vector agreement violated: %d decided %v, %d decided %v",
				refID, ref, p.ID(), out)
		}
		for i := range out {
			if out[i] != ref[i] {
				return fmt.Errorf("dbft: vector agreement violated: %d decided %v, %d decided %v",
					refID, ref, p.ID(), out)
			}
		}
	}
	return nil
}

// VectorValidity checks that every output value was proposed by some
// process (correct proposals given; Byzantine proposers may contribute any
// RBC-delivered payload, listed in byzantine).
func VectorValidity(procs []*VectorProcess, correctProposals []string, byzantineOK func(string) bool) error {
	proposed := map[string]bool{}
	for _, p := range correctProposals {
		proposed[p] = true
	}
	for _, p := range procs {
		out, ok := p.Decided()
		if !ok {
			continue
		}
		for _, v := range out {
			if !proposed[v] && (byzantineOK == nil || !byzantineOK(v)) {
				return fmt.Errorf("dbft: vector validity violated: process %d output unproposed value %q", p.ID(), v)
			}
		}
	}
	return nil
}

// AllVectorDecided reports whether every process decided.
func AllVectorDecided(procs []*VectorProcess) bool {
	for _, p := range procs {
		if _, ok := p.Decided(); !ok {
			return false
		}
	}
	return true
}

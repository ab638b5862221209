// Package blockchain is the application layer the paper's verification
// ultimately protects: a Red-Belly-style replicated ledger. At every height
// each replica proposes a block of pending transactions; the DBFT vector
// consensus (internal/dbft) decides which proposals commit; their union
// forms the height's *superblock* — the Red Belly construction in which up
// to n proposals commit per consensus instance instead of one.
//
// Because the underlying binary consensus is the verified algorithm, the
// ledger inherits its guarantees: no fork with f <= t < n/3 under any
// schedule, and progress under the bv-broadcast fairness assumption.
package blockchain

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dbft"
	"repro/internal/fairness"
	"repro/internal/faults"
	"repro/internal/network"
	"repro/internal/protocol"
)

// Tx is a transaction payload.
type Tx string

// Block is one committed superblock.
type Block struct {
	Height int
	// Proposals records how many replica proposals the superblock merged.
	Proposals int
	Txs       []Tx
}

func (b Block) String() string {
	parts := make([]string, len(b.Txs))
	for i, tx := range b.Txs {
		parts[i] = string(tx)
	}
	return fmt.Sprintf("block %d (%d proposals): [%s]", b.Height, b.Proposals, strings.Join(parts, " "))
}

// Health is a replica's availability state as seen by the ledger
// orchestrator.
type Health int

// Replica health states.
const (
	// Healthy replicas propose and vote.
	Healthy Health = iota
	// Crashed replicas are down: they neither propose nor vote, and their
	// chains lag until Recover catches them up.
	Crashed
	// Partitioned replicas are unreachable: operationally identical to
	// Crashed for a height, but they keep their mempool and state.
	Partitioned
)

func (h Health) String() string {
	switch h {
	case Crashed:
		return "crashed"
	case Partitioned:
		return "partitioned"
	default:
		return "healthy"
	}
}

// ReplicaStatus is one row of the per-replica health report.
type ReplicaStatus struct {
	ID        network.ProcID
	Byzantine bool
	Health    Health
	Height    int // committed chain length (0 for Byzantine slots)
}

// Ledger orchestrates a fleet of replicas committing superblocks height by
// height. Correct replicas hold a mempool and a chain; Byzantine replica
// slots are silent (they simply never propose or vote — the worst a
// Byzantine process can do to liveness once safety is guaranteed by the
// consensus layer).
//
// The ledger degrades gracefully: replicas marked Crashed or Partitioned
// sit out a height (they are silent for that consensus instance) and the
// rest keep committing, provided Byzantine + unavailable replicas stay
// within the tolerance t. Recover catches a replica back up by state
// transfer — safe because superblocks are the deterministic output of the
// agreed vector, so any up-to-date peer's chain is the chain.
type Ledger struct {
	cfg      dbft.Config
	byz      map[network.ProcID]bool
	health   map[network.ProcID]Health
	mempools map[network.ProcID][]Tx
	chains   map[network.ProcID][]Block
	// MaxSteps bounds each height's consensus (0 = default 5,000,000).
	MaxSteps int

	// Faults, when set, injects the fault plan into every height's
	// consensus instance (lossy links, duplicates, delays, partitions —
	// the ledger-level entry point to internal/faults). TickInterval sets
	// the retransmission clock for those runs (0 = default 25).
	Faults       *faults.Plan
	TickInterval int

	// stores holds per-replica durable chain storage (see durable.go); nil
	// until EnableDurability.
	stores map[network.ProcID]*blockStore
}

// NewLedger creates a ledger with n replicas tolerating t Byzantine ones;
// the ids in byz behave Byzantine (silent).
func NewLedger(n, t int, byz []network.ProcID) (*Ledger, error) {
	cfg := dbft.Config{N: n, T: t, MaxRounds: 16}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 3*t && t > 0 {
		return nil, fmt.Errorf("blockchain: resilience requires n > 3t, got n=%d t=%d", n, t)
	}
	l := &Ledger{
		cfg:      cfg,
		byz:      map[network.ProcID]bool{},
		health:   map[network.ProcID]Health{},
		mempools: map[network.ProcID][]Tx{},
		chains:   map[network.ProcID][]Block{},
	}
	for _, id := range byz {
		if int(id) < 0 || int(id) >= n {
			return nil, fmt.Errorf("blockchain: byzantine id %d out of range", id)
		}
		l.byz[id] = true
	}
	if len(l.byz) > t {
		return nil, fmt.Errorf("blockchain: %d byzantine replicas exceed t=%d", len(l.byz), t)
	}
	for i := 0; i < n; i++ {
		id := network.ProcID(i)
		if !l.byz[id] {
			l.chains[id] = nil
		}
	}
	return l, nil
}

// Submit adds transactions to a replica's mempool (ignored for Byzantine
// slots).
func (l *Ledger) Submit(replica network.ProcID, txs ...Tx) {
	if l.byz[replica] {
		return
	}
	l.mempools[replica] = append(l.mempools[replica], txs...)
}

// Height reports the number of committed superblocks (the longest correct
// chain — lagging crashed replicas are behind it until they recover).
func (l *Ledger) Height() int {
	h := 0
	for _, chain := range l.chains {
		if len(chain) > h {
			h = len(chain)
		}
	}
	return h
}

// SetHealth marks a correct replica's availability. Crashed/Partitioned
// replicas sit out subsequent heights; committing remains possible while
// Byzantine + unavailable replicas stay within t.
func (l *Ledger) SetHealth(id network.ProcID, h Health) error {
	if int(id) < 0 || int(id) >= l.cfg.N {
		return fmt.Errorf("blockchain: replica %d out of range", id)
	}
	if l.byz[id] {
		return fmt.Errorf("blockchain: replica %d is Byzantine, not health-managed", id)
	}
	if h == Healthy {
		return l.Recover(id)
	}
	l.health[id] = h
	return nil
}

// Recover marks a replica healthy again and catches it up by state
// transfer: missing superblocks are copied from the longest chain (any
// up-to-date peer is authoritative — superblocks are the deterministic
// output of the agreed vector) and its mempool is pruned of transactions
// those blocks committed.
func (l *Ledger) Recover(id network.ProcID) error {
	if l.byz[id] {
		return fmt.Errorf("blockchain: replica %d is Byzantine, not health-managed", id)
	}
	delete(l.health, id)
	var ref []Block
	for _, chain := range l.chains {
		if len(chain) > len(ref) {
			ref = chain
		}
	}
	mine := l.chains[id]
	transferred := 0
	for h := len(mine); h < len(ref); h++ {
		block := ref[h]
		mine = append(mine, block)
		transferred++
		committed := map[Tx]bool{}
		for _, tx := range block.Txs {
			committed[tx] = true
		}
		var rest []Tx
		for _, tx := range l.mempools[id] {
			if !committed[tx] {
				rest = append(rest, tx)
			}
		}
		l.mempools[id] = rest
	}
	l.chains[id] = mine
	return l.persistRecover(id, transferred)
}

// Status reports per-replica health, sorted by id.
func (l *Ledger) Status() []ReplicaStatus {
	out := make([]ReplicaStatus, 0, l.cfg.N)
	for i := 0; i < l.cfg.N; i++ {
		id := network.ProcID(i)
		st := ReplicaStatus{ID: id, Byzantine: l.byz[id]}
		if !st.Byzantine {
			st.Health = l.health[id]
			st.Height = len(l.chains[id])
		}
		out = append(out, st)
	}
	return out
}

// available reports whether a correct replica participates in consensus.
func (l *Ledger) available(id network.ProcID) bool {
	return !l.byz[id] && l.health[id] == Healthy
}

// Chain returns a replica's chain.
func (l *Ledger) Chain(replica network.ProcID) []Block {
	return append([]Block(nil), l.chains[replica]...)
}

const txSep = "\x1f"

func encodeProposal(txs []Tx) string {
	parts := make([]string, len(txs))
	for i, tx := range txs {
		parts[i] = string(tx)
	}
	return strings.Join(parts, txSep)
}

func decodeProposal(s string) []Tx {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, txSep)
	out := make([]Tx, len(parts))
	for i, p := range parts {
		out[i] = Tx(p)
	}
	return out
}

// CommitHeight runs one vector consensus over the current mempools and
// appends the resulting superblock to every available replica's chain.
// Committed transactions leave those replicas' mempools. Crashed or
// partitioned replicas sit the height out (their slots run silent, like
// Byzantine ones); the height still commits as long as faulty + unavailable
// replicas stay within the tolerance t — the graceful-degradation envelope
// the resilience condition n > 3t buys.
func (l *Ledger) CommitHeight() (Block, error) {
	unavailable := 0
	for id := range l.health {
		if l.health[id] != Healthy {
			unavailable++
		}
	}
	if len(l.byz)+unavailable > l.cfg.T {
		return Block{}, fmt.Errorf("blockchain: %d byzantine + %d unavailable replicas exceed t=%d; cannot commit",
			len(l.byz), unavailable, l.cfg.T)
	}

	all := protocol.AllIDs(l.cfg.N)
	var participating []*dbft.VectorProcess
	procs := make([]network.Process, 0, l.cfg.N)
	for i := 0; i < l.cfg.N; i++ {
		id := network.ProcID(i)
		if !l.available(id) {
			procs = append(procs, &protocol.Silent{Id: id})
			continue
		}
		p, err := dbft.NewVectorProcess(id, encodeProposal(l.mempools[id]), l.cfg, all)
		if err != nil {
			return Block{}, err
		}
		participating = append(participating, p)
		procs = append(procs, p)
	}

	// Unavailable replicas are scheduled like Byzantine ones: their (empty)
	// traffic never blocks the fair schedule.
	silent := map[network.ProcID]bool{}
	for id := range l.byz {
		silent[id] = true
	}
	for id, h := range l.health {
		if h != Healthy {
			silent[id] = true
		}
	}
	var sched network.Scheduler = fairness.Scheduler{Byzantine: silent}
	var inj *faults.Injector
	if l.Faults != nil {
		inj = faults.NewInjector(*l.Faults, sched)
		sched = inj
		procs = inj.Wrap(procs)
	}
	sys, err := network.NewSystem(procs, sched)
	if err != nil {
		return Block{}, err
	}
	if inj != nil {
		inj.Install(sys)
		sys.TickInterval = l.TickInterval
		if sys.TickInterval <= 0 {
			sys.TickInterval = 25
		}
	}
	maxSteps := l.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 5_000_000
	}
	if _, err := sys.Run(maxSteps, func() bool { return dbft.AllVectorDecided(participating) }); err != nil {
		return Block{}, err
	}
	if !dbft.AllVectorDecided(participating) {
		return Block{}, fmt.Errorf("blockchain: height %d did not commit within the step budget", l.Height())
	}
	if err := dbft.VectorAgreement(participating); err != nil {
		return Block{}, err
	}

	// Build the superblock from the agreed vector: the union of committed
	// proposals, deduplicated, in deterministic order.
	vector, _ := participating[0].Decided()
	seen := map[Tx]bool{}
	var txs []Tx
	for _, proposal := range vector {
		for _, tx := range decodeProposal(proposal) {
			if !seen[tx] {
				seen[tx] = true
				txs = append(txs, tx)
			}
		}
	}
	sort.Slice(txs, func(i, j int) bool { return txs[i] < txs[j] })
	block := Block{Height: l.Height(), Proposals: len(vector), Txs: txs}

	for id := range l.chains {
		if !l.available(id) {
			continue // lagging replicas catch up via Recover
		}
		l.chains[id] = append(l.chains[id], block)
		// Remove committed transactions from the mempool.
		var rest []Tx
		for _, tx := range l.mempools[id] {
			if !seen[tx] {
				rest = append(rest, tx)
			}
		}
		l.mempools[id] = rest
	}
	if err := l.persistCommit(block); err != nil {
		return Block{}, err
	}
	return block, nil
}

// VerifyChains checks that no two correct replicas fork: every chain must
// be a prefix of the longest one. Replicas that sat out heights while
// crashed or partitioned legitimately lag — lag is degradation, not a fork
// — so only a content mismatch at a shared height is an error. Use Status
// for the per-replica health and lag report.
func (l *Ledger) VerifyChains() error {
	var ref []Block
	var refID network.ProcID
	for id, chain := range l.chains {
		if len(chain) > len(ref) {
			ref, refID = chain, id
		}
	}
	for id, chain := range l.chains {
		for h := range chain {
			if !sameBlock(chain[h], ref[h]) {
				return fmt.Errorf("blockchain: fork at height %d between replicas %d and %d", h, refID, id)
			}
		}
		if len(chain) < len(ref) && l.health[id] == Healthy {
			return fmt.Errorf("blockchain: healthy replica %d lags at height %d (longest %d) — missed recovery",
				id, len(chain), len(ref))
		}
	}
	return nil
}

func sameBlock(a, b Block) bool {
	if a.Height != b.Height || len(a.Txs) != len(b.Txs) {
		return false
	}
	for i := range a.Txs {
		if a.Txs[i] != b.Txs[i] {
			return false
		}
	}
	return true
}

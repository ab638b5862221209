package network

import (
	"cmp"
	"slices"
)

// BusOptions configure the event-bus message store (the default backend).
// The zero value reproduces the reliable flat loop exactly: unbounded
// queues, no replay filtering, no stall detection, full mesh.
type BusOptions struct {
	// QueueCap bounds each peer's ingress queue (and, in native mode, its
	// deferred egress buffer). Enqueues beyond the cap are dropped and
	// counted; retransmission recovers the content. 0 = unbounded.
	QueueCap int
	// EgressCap bounds how many messages one peer may push onto the bus per
	// simulated step in native mode; excess sends are deferred to the
	// peer's egress buffer and drained FIFO on later steps. 0 = unbounded.
	EgressCap int
	// Dupemap enables the per-receiver replay filter: a bounded seen-set of
	// delivered message contents (Message.Key, interned by the bus); copies
	// whose content was already delivered are dropped (at enqueue when
	// possible, else at delivery) and counted.
	Dupemap bool
	// DupemapCap bounds each peer's seen-set; oldest keys are evicted FIFO
	// (an evicted key may be delivered again — harmless, the protocols are
	// idempotent). 0 = 8192.
	DupemapCap int
	// StallK flags a peer whose nonempty queue makes no progress for K
	// consecutive simulated steps. The flag clears on the next pop.
	// 0 = disabled.
	StallK int
	// Topology routes messages; nil = FullMesh. Sparse topologies relay
	// through intermediate peers' queues and require native drain mode
	// (the compat Scheduler contract exposes end-to-end messages).
	Topology Topology
}

// NativeOptions select the bus's native window-drain mode: each Step is one
// simulated window in which every peer pops up to Batch eligible entries
// FIFO from its own queue. Windows are deterministic for a fixed seed and
// independent of Partitions, so runs fingerprint identically at any worker
// count.
type NativeOptions struct {
	// Batch is the per-peer delivery budget per window. 0 = 4.
	Batch int
	// Partitions splits peers across drain goroutines (peer id mod
	// Partitions); each process's state is only ever touched by its owning
	// worker. 0 or 1 = sequential.
	Partitions int
	// ScanLimit bounds how deep the eligibility scan looks past held
	// entries (delayed or behind a partition cut) before giving up for the
	// window, preventing head-of-line scans from going quadratic. 0 = 128.
	ScanLimit int
}

// BusStats is a snapshot of the bus's counters.
type BusStats struct {
	Enqueued    int64 `json:"enqueued"`
	Delivered   int64 `json:"delivered"`
	Relayed     int64 `json:"relayed"`
	CapDrops    int64 `json:"cap_drops"`
	EgressDrops int64 `json:"egress_drops"`
	Filtered    int64 `json:"filtered"`
	TopicDrops  int64 `json:"topic_drops"`
	TTLDrops    int64 `json:"ttl_drops"`
	Stalls      int64 `json:"stalls"`
	PeakDepth   int   `json:"peak_depth"`
}

// StallEvent records one peer entering the stalled state.
type StallEvent struct {
	Peer  ProcID `json:"peer"`
	Step  int    `json:"step"`
	Depth int    `json:"depth"`
	Idle  int    `json:"idle"`
}

// Topic is a subscription key: messages are matched on (Kind, Instance).
// Instance AnyInstance matches every instance of the kind.
type Topic struct {
	Kind     MsgKind
	Instance int
}

// AnyInstance is the Topic wildcard instance.
const AnyInstance = -1

// maxHops bounds gossip routes as a safety net against topology bugs; the
// shipped topologies never get near it (greedy XOR routing is loop-free).
const maxHops = 64

// dupemap is one receiver's bounded seen-set of interned content ids (see
// busStore.intern) with FIFO eviction. Ids are small dense integers, so the
// set is a bitset — one word read per lookup, where 400 receivers' hash maps
// were a cache miss each — and the ring remembers the insertion order.
type dupemap struct {
	bits []uint64 // bit id is set for every id in ring; grows to the largest id seen
	// ring grows on demand up to cap — most receivers never see cap distinct
	// contents — and then wraps, next pointing at the oldest id.
	ring []uint32
	next int
	cap  int
}

func newDupemap(cap int) *dupemap {
	if cap <= 0 {
		cap = 8192
	}
	return &dupemap{cap: cap}
}

func (d *dupemap) has(id uint32) bool {
	w := int(id >> 6)
	return w < len(d.bits) && d.bits[w]&(1<<(id&63)) != 0
}

// add records id, evicting the oldest one at capacity, and reports whether it
// was new.
func (d *dupemap) add(id uint32) bool {
	if d.has(id) {
		return false
	}
	if w := int(id >> 6); w >= len(d.bits) {
		d.bits = append(d.bits, make([]uint64, w+1-len(d.bits))...)
	}
	if len(d.ring) < d.cap {
		d.ring = append(d.ring, id)
	} else {
		old := d.ring[d.next]
		d.bits[old>>6] &^= 1 << (old & 63)
		d.ring[d.next] = id
		d.next = (d.next + 1) % d.cap
	}
	d.bits[id>>6] |= 1 << (id & 63)
	return true
}

// busEntry is one in-flight copy sitting in a peer's ingress queue.
type busEntry struct {
	msg Message
	// hopFrom is the physical sender of this hop (== msg.From on the first
	// hop, the relaying peer afterwards). Partition cuts apply to the
	// physical link.
	hopFrom   ProcID
	arrival   int64  // global enqueue order; the compat view merges on it
	notBefore int    // earliest step this copy may deliver (native delays)
	hops      int32  // relay hops so far, below maxHops
	id        uint32 // interned content of msg; 0 with the dupemap off
}

// peerQueue is one peer's bounded FIFO ingress queue.
type peerQueue struct {
	id   ProcID
	buf  []busEntry
	head int
	seen *dupemap       // nil = dupemap off
	subs map[Topic]bool // nil = subscribed to everything
	// egress is the native-mode deferred send buffer (EgressCap overflow).
	egress     []Message
	egressHead int

	lastProgress int
	stalled      bool
}

func (q *peerQueue) depth() int { return len(q.buf) - q.head }

func (q *peerQueue) at(i int) *busEntry { return &q.buf[q.head+i] }

// removeAt removes the entry at head-relative index i, preserving the order
// of the rest. Entries ahead of i shift back by one.
func (q *peerQueue) removeAt(i int) {
	copy(q.buf[q.head+1:q.head+i+1], q.buf[q.head:q.head+i])
	q.buf[q.head] = busEntry{} // release Set/Payload references
	q.head++
	if q.head > 64 && q.head > len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		for j := n; j < len(q.buf); j++ {
			q.buf[j] = busEntry{}
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
}

func (q *peerQueue) egressDepth() int { return len(q.egress) - q.egressHead }

func (q *peerQueue) egressPop() Message {
	m := q.egress[q.egressHead]
	q.egress[q.egressHead] = Message{}
	q.egressHead++
	if q.egressHead > 64 && q.egressHead > len(q.egress)/2 {
		n := copy(q.egress, q.egress[q.egressHead:])
		for j := n; j < len(q.egress); j++ {
			q.egress[j] = Message{}
		}
		q.egress = q.egress[:n]
		q.egressHead = 0
	}
	return m
}

func (q *peerQueue) subscribed(m Message) bool {
	if q.subs == nil {
		return true
	}
	return q.subs[Topic{Kind: m.Kind, Instance: m.Instance}] ||
		q.subs[Topic{Kind: m.Kind, Instance: AnyInstance}]
}

// busStore is the event-bus in-flight store: a broker over per-peer bounded
// FIFO queues. Arrival stamps give it a second identity: merging every
// queue in arrival order reproduces, entry for entry, the flat loop's
// in-flight slice (appends are monotone and index-removal preserves order),
// which is what makes the compat Scheduler path byte-identical.
type busStore struct {
	opts   BusOptions
	topo   Topology
	sparse bool // topology may route through relays

	ids    []ProcID
	idx    map[ProcID]int
	queues []peerQueue

	arrival int64
	size    int // total queued entries across peers

	stats    BusStats
	stallLog []StallEvent

	// interned numbers every distinct message content, destination aside,
	// that was ever enqueued with the dupemap on: a broadcast is one content
	// sent to n receivers, so the table holds one entry per logical
	// broadcast while each receiver's seen-set and every queued copy hold a
	// 4-byte id. Only the sequential side of the bus (send and the window
	// merge) reads or writes it; drain workers see ids, never the table.
	interned map[MsgKey]uint32

	// compat-view scratch, reused across steps
	viewBuf []Message
	viewRef []viewRef
}

type viewRef struct {
	peer, pos int
	arrival   int64
}

func newBusStore(ids []ProcID, opts BusOptions) *busStore {
	b := &busStore{opts: opts, ids: ids, idx: make(map[ProcID]int, len(ids))}
	b.topo = opts.Topology
	if b.topo == nil {
		b.topo = FullMesh{}
	}
	b.sparse = b.topo.Neighbors(ids[0]) != nil
	b.queues = make([]peerQueue, len(ids))
	for i, id := range ids {
		b.idx[id] = i
		b.queues[i] = peerQueue{id: id}
		if opts.Dupemap {
			b.queues[i].seen = newDupemap(opts.DupemapCap)
		}
	}
	if opts.Dupemap {
		b.interned = make(map[MsgKey]uint32)
	}
	return b
}

// intern returns the id of m's content with the destination erased — the
// receiver's own queue supplies it — assigning the next one on first sight.
func (b *busStore) intern(m Message) uint32 {
	k := m.Key()
	k.to = 0
	id, ok := b.interned[k]
	if !ok {
		id = uint32(len(b.interned)) + 1
		b.interned[k] = id
	}
	return id
}

// filtered counts n copies the replay filter suppressed.
func (b *busStore) filtered(n int64) {
	b.stats.Filtered += n
	obsFiltered.Add(n)
}

// subscribe restricts a peer's queue to the given topics (first call flips
// the peer from subscribed-to-everything to explicit subscriptions).
func (b *busStore) subscribe(id ProcID, topics ...Topic) {
	q := &b.queues[b.idx[id]]
	if q.subs == nil {
		q.subs = make(map[Topic]bool)
	}
	for _, t := range topics {
		q.subs[t] = true
	}
}

// enqueue routes one copy onto its first hop's queue.
func (b *busStore) enqueue(m Message, notBefore int) {
	e := busEntry{msg: m, hopFrom: m.From, notBefore: notBefore}
	if b.interned != nil {
		e.id = b.intern(m)
	}
	hop := m.To
	if b.sparse {
		hop = b.topo.NextHop(m.From, m.To)
	}
	b.enqueueAt(hop, &e)
}

// forward re-enqueues a relayed entry toward its destination from the peer
// that just popped it; the interned id travels with it.
func (b *busStore) forward(e *busEntry, at ProcID) {
	if e.hops+1 >= maxHops {
		b.stats.TTLDrops++
		return
	}
	b.stats.Relayed++
	obsRelayed.Inc()
	e.hops++
	e.hopFrom = at
	b.enqueueAt(b.topo.NextHop(at, e.msg.To), e)
}

// enqueueAt pushes a copy of *e, stamped with the next arrival number, onto
// peer at's queue.
func (b *busStore) enqueueAt(at ProcID, e *busEntry) {
	q := &b.queues[b.idx[at]]
	if at == e.msg.To { // final hop: subscription + replay filters apply
		if !q.subscribed(e.msg) {
			b.stats.TopicDrops++
			return
		}
		if q.seen != nil && q.seen.has(e.id) {
			b.filtered(1)
			return
		}
	}
	if b.opts.QueueCap > 0 && q.depth() >= b.opts.QueueCap {
		b.stats.CapDrops++
		obsCapDrops.Inc()
		return
	}
	b.arrival++
	e.arrival = b.arrival
	q.buf = append(q.buf, *e)
	b.size++
	b.stats.Enqueued++
	obsEnqueued.Inc()
	if d := q.depth(); d > b.stats.PeakDepth {
		b.stats.PeakDepth = d
		obsPeakDepth.Set(int64(d))
	}
}

// compatView materializes every queued entry in arrival order — exactly the
// flat loop's in-flight slice. The returned slice is valid until the next
// mutation; takeCompat(i) removes the entry backing view index i.
func (b *busStore) compatView() []Message {
	b.viewRef = b.viewRef[:0]
	for qi := range b.queues {
		q := &b.queues[qi]
		for i := 0; i < q.depth(); i++ {
			b.viewRef = append(b.viewRef, viewRef{peer: qi, pos: i, arrival: q.at(i).arrival})
		}
	}
	slices.SortFunc(b.viewRef, func(x, y viewRef) int { return cmp.Compare(x.arrival, y.arrival) })
	b.viewBuf = b.viewBuf[:0]
	for _, r := range b.viewRef {
		b.viewBuf = append(b.viewBuf, b.queues[r.peer].at(r.pos).msg)
	}
	return b.viewBuf
}

func (b *busStore) takeCompat(i, step int) busEntry {
	r := b.viewRef[i]
	q := &b.queues[r.peer]
	e := *q.at(r.pos)
	q.removeAt(r.pos)
	q.lastProgress = step
	q.stalled = false
	b.size--
	return e
}

// scanStalls flags peers whose nonempty queue has made no progress for
// StallK steps, returning how many peers newly stalled this step.
func (b *busStore) scanStalls(step int) int {
	if b.opts.StallK <= 0 {
		return 0
	}
	newly := 0
	for qi := range b.queues {
		q := &b.queues[qi]
		if q.depth() == 0 {
			q.lastProgress = step
			q.stalled = false
			continue
		}
		if idle := step - q.lastProgress; idle >= b.opts.StallK && !q.stalled {
			q.stalled = true
			newly++
			b.stats.Stalls++
			obsStalls.Inc()
			if len(b.stallLog) < 64 {
				b.stallLog = append(b.stallLog, StallEvent{Peer: q.id, Step: step, Depth: q.depth(), Idle: idle})
			}
		}
	}
	return newly
}

func (b *busStore) egressPending() int {
	n := 0
	for qi := range b.queues {
		n += b.queues[qi].egressDepth()
	}
	return n
}

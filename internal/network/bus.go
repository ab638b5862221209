package network

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/obs"
)

// BusOptions configure the event-bus message store. The zero value is the
// reliable network of Section 2: unbounded queues, no replay filtering, no
// stall detection, full mesh.
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
	// delivered message contents (the bus's content ids); copies
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
	// (the Scheduler's view exposes end-to-end messages).
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

// maxHops bounds gossip routes as a safety net against topology bugs; the
// shipped topologies never get near it (greedy XOR routing is loop-free).
const maxHops = 64

// dupemap is one receiver's bounded seen-set of content ids (see
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

// busEntry is one in-flight copy sitting in a peer's ingress queue: its
// content is the table entry id names, and the rest is what differs between
// copies of one content. It is five words: the destination is a queue index
// (every destination is a peer), the delay and the hop count are 32-bit. The
// hop sender stays a full ProcID, since Inject may send from outside the
// peer set.
type busEntry struct {
	// hopFrom is the physical sender of this hop (the content's From on the
	// first hop, the relaying peer afterwards). Partition cuts apply to the
	// physical link.
	hopFrom   ProcID
	seq       int64  // the copy's Seq tag
	arrival   int64  // global enqueue order; the Scheduler's view merges on it
	dst       uint32 // final destination's queue index; b.ids[dst] is its ProcID
	notBefore int32  // earliest step this copy may deliver (the stamp's delay, see stepStamp)
	hops      int32  // relay hops so far, below maxHops
	id        uint32 // content id (busStore.contents index)
}

// stepStamp narrows a Stamp's NotBefore to an entry's 32 bits, saturating: a
// stamp past math.MaxInt32 holds its copy for as long as the clock can count,
// where a wrapped, negative one would deliver it at once.
func stepStamp(step int) int32 {
	return int32(max(math.MinInt32, min(step, math.MaxInt32)))
}

// peerQueue is one peer's bounded FIFO ingress queue.
type peerQueue struct {
	id   ProcID
	buf  []busEntry
	head int
	seen *dupemap // nil = dupemap off
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
	q.head++
	if q.head > 64 && q.head > len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
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

// busStore is the in-flight store: a broker over per-peer bounded FIFO
// queues. Arrival stamps give it a second identity: merging every queue in
// arrival order yields the in-flight multiset in send order (appends are
// monotone and index-removal preserves order), the sequence a Scheduler
// picks from.
type busStore struct {
	opts   BusOptions
	topo   Topology
	sparse bool // topology may route through relays

	ids    []ProcID
	idx    map[ProcID]int
	dense  bool // ids are 0..len(ids)-1, so an id is its own queue index
	queues []peerQueue

	arrival int64
	size    int // total queued entries across peers

	stats    BusStats
	stallLog []StallEvent
	// published is what the process-wide obs counters hold of stats: the
	// send path counts in stats alone, and publish moves the counters by the
	// difference once per step (see publish).
	published BusStats

	// contents is the content table: every distinct message content ever
	// sent, destination and Seq erased, indexed by content id. A broadcast
	// is one content sent to n receivers, so the table holds one entry per
	// logical broadcast while every queued copy and each receiver's
	// seen-set hold a 4-byte id. Only the sequential side of the bus (send,
	// the egress drain and the window merge) appends to it; native drain
	// workers read it, to rebuild the messages they deliver, only while no
	// append can run. Entries are never changed once written.
	contents []Message
	// interned maps each content's key (MsgKey with To erased) to its id;
	// last is the id of the most recent send, checked before the map so a
	// broadcast's n copies cost one lookup.
	interned map[MsgKey]uint32
	last     uint32

	// Scheduler-view scratch, reused across steps
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
	b.dense = true
	for i, id := range ids {
		b.idx[id] = i
		b.dense = b.dense && id == ProcID(i)
		b.queues[i] = peerQueue{id: id}
		if opts.Dupemap {
			b.queues[i].seen = newDupemap(opts.DupemapCap)
		}
	}
	b.interned = make(map[MsgKey]uint32)
	return b
}

// queueIndex returns the index of peer id's queue, and whether id is a peer.
func (b *busStore) queueIndex(id ProcID) (int, bool) {
	if b.dense {
		return int(id), id >= 0 && int(id) < len(b.ids)
	}
	i, ok := b.idx[id]
	return i, ok
}

// intern returns the id of m's content with the destination and Seq erased —
// each copy carries its own — adding the content to the table on first
// sight. A Message holds no pointer, so the table's entry is a plain copy
// that no later send can reach.
func (b *busStore) intern(m *Message) uint32 {
	if len(b.contents) > 0 && sameContent(&b.contents[b.last], m) {
		return b.last
	}
	k := m.Key()
	k.to = 0
	id, ok := b.interned[k]
	if !ok {
		id = uint32(len(b.contents))
		b.interned[k] = id
		c := *m
		c.To, c.Seq = 0, 0
		b.contents = append(b.contents, c)
	}
	b.last = id
	return id
}

// sameContent reports whether two messages are the same content: equal Keys
// but for To.
func sameContent(a, b *Message) bool {
	return a.From == b.From && a.Round == b.Round && a.Value == b.Value && a.Kind == b.Kind && a.Set == b.Set
}

// message rebuilds the Message an entry carries.
func (b *busStore) message(e *busEntry) Message {
	m := b.contents[e.id]
	m.To, m.Seq = b.ids[e.dst], e.seq
	return m
}

// publish moves the process-wide bus counters, and the bus_peak_depth gauge,
// by what stats gained since the last call. The per-copy paths count in
// stats alone: an atomic add per enqueue is a locked instruction that drains
// the store buffer, so it bills each copy for the entry store in front of it
// (DESIGN.md § "Event-bus simulator", *Publishing the bus counters*). The
// System publishes at the end of every Step and Inject, so outside those
// calls the counters agree with every System's BusStats.
func (b *busStore) publish() {
	s, p := &b.stats, &b.published
	addDelta(obsEnqueued, s.Enqueued, p.Enqueued)
	addDelta(obsDelivered, s.Delivered, p.Delivered)
	addDelta(obsRelayed, s.Relayed, p.Relayed)
	addDelta(obsCapDrops, s.CapDrops, p.CapDrops)
	addDelta(obsEgressDrops, s.EgressDrops, p.EgressDrops)
	addDelta(obsFiltered, s.Filtered, p.Filtered)
	addDelta(obsStalls, s.Stalls, p.Stalls)
	if s.PeakDepth > p.PeakDepth {
		obsPeakDepth.Set(int64(s.PeakDepth))
	}
	*p = *s
}

func addDelta(c *obs.Counter, now, was int64) {
	if now != was {
		c.Add(now - was)
	}
}

// enqueue routes one copy of content id, sent from -> the peer at queue
// index dst, onto its first hop's queue.
func (b *busStore) enqueue(id uint32, from ProcID, dst int, st Stamp) {
	e := busEntry{hopFrom: from, seq: st.Seq, notBefore: stepStamp(st.NotBefore), dst: uint32(dst), id: id}
	hop := dst
	if b.sparse {
		hop, _ = b.queueIndex(b.topo.NextHop(from, b.ids[dst]))
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
	e.hops++
	e.hopFrom = at
	hop, _ := b.queueIndex(b.topo.NextHop(at, b.ids[e.dst]))
	b.enqueueAt(hop, e)
}

// enqueueAt pushes a copy of *e, stamped with the next arrival number, onto
// the queue at index qi.
func (b *busStore) enqueueAt(qi int, e *busEntry) {
	q := &b.queues[qi]
	if qi == int(e.dst) && q.seen != nil && q.seen.has(e.id) { // final hop: replay filter
		b.stats.Filtered++
		return
	}
	if b.opts.QueueCap > 0 && q.depth() >= b.opts.QueueCap {
		b.stats.CapDrops++
		return
	}
	b.arrival++
	e.arrival = b.arrival
	q.buf = append(q.buf, *e)
	b.size++
	b.stats.Enqueued++
	if d := q.depth(); d > b.stats.PeakDepth {
		b.stats.PeakDepth = d
	}
}

// compatView materializes, in arrival order, every queued entry deliverable
// at step: its notBefore has passed and cut does not sever its link. The
// returned slice is valid until the next mutation; takeCompat(i) removes the
// entry backing view index i.
func (b *busStore) compatView(step int, cut func(from, to ProcID, step int) bool) []Message {
	b.viewRef = b.viewRef[:0]
	for qi := range b.queues {
		q := &b.queues[qi]
		for i := 0; i < q.depth(); i++ {
			e := q.at(i)
			if int(e.notBefore) > step || (cut != nil && cut(e.hopFrom, q.id, step)) {
				continue
			}
			b.viewRef = append(b.viewRef, viewRef{peer: qi, pos: i, arrival: e.arrival})
		}
	}
	slices.SortFunc(b.viewRef, func(x, y viewRef) int { return cmp.Compare(x.arrival, y.arrival) })
	b.viewBuf = b.viewBuf[:0]
	for _, r := range b.viewRef {
		b.viewBuf = append(b.viewBuf, b.message(b.queues[r.peer].at(r.pos)))
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

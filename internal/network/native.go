package network

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// stepWindow advances one native drain window. Each window:
//
//  1. advances the clock and notifies StepTap (the fault injector);
//  2. drains each peer's deferred egress buffer (EgressCap overflow from
//     earlier windows), FIFO, up to the per-window budget;
//  3. lets every peer pop up to Batch eligible entries FIFO from its own
//     ingress queue and deliver them — split across Partitions worker
//     goroutines by peer index, each process's state touched only by its
//     owning worker, with handler sends buffered per peer;
//  4. merges the buffered sends and gossip relays back onto the bus in
//     ascending peer-id order — so enqueue arrival order, and with it every
//     downstream fingerprint, is independent of the partition count;
//  5. runs the stall scan and the periodic tick.
//
// An entry is eligible when its notBefore delay has expired and the fault
// plane's CutTap does not sever its physical link. Held entries are skipped
// (bounded by ScanLimit) rather than blocking the queue head.
func (s *System) stepWindow() (bool, error) {
	if !s.started {
		s.start()
	}
	s.Steps++
	step := s.Steps
	if s.StepTap != nil {
		s.StepTap(step)
	}
	parts := min(s.native.Partitions, len(s.order))

	// Phase 2: drain deferred egress under a fresh per-window send budget.
	egressDrained := 0
	if s.bus.opts.EgressCap > 0 {
		for i := range s.egressUsed {
			s.egressUsed[i] = 0
		}
		for qi := range s.bus.queues {
			q := &s.bus.queues[qi]
			for q.egressDepth() > 0 && s.egressUsed[qi] < s.bus.opts.EgressCap {
				m := q.egressPop()
				s.egressUsed[qi]++
				egressDrained++
				dst, _ := s.bus.queueIndex(m.To)
				s.release(s.bus.intern(&m), m.From, dst, m.Seq)
			}
		}
	}

	// Phase 3: parallel drain. Worker w owns peers w, w+parts, w+2*parts...
	if parts <= 1 {
		if err := s.drainPeers(0, 1, step); err != nil {
			return false, err
		}
	} else {
		errs := make([]error, parts)
		var wg sync.WaitGroup
		wg.Add(parts)
		for w := 0; w < parts; w++ {
			go func(w int) {
				defer wg.Done()
				errs[w] = s.drainPeers(w, parts, step)
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return false, err
			}
		}
	}

	// Phase 4: deterministic merge in ascending peer-id order.
	removed := 0
	for qi, id := range s.order {
		d := &s.drains[qi]
		removed += d.taken
		s.bus.stats.Delivered += d.delivered
		s.bus.stats.Filtered += d.filtered
		s.Trace = append(s.Trace, d.trace...)
		s.sender = id
		s.flush(d, id)
		for i := range d.relays {
			s.bus.forward(&d.relays[i], id)
		}
	}
	s.bus.size -= removed

	// Phase 5: stall scan and periodic tick.
	s.bus.scanStalls(step)
	s.tick()

	if removed == 0 && egressDrained == 0 && s.Inflight() == 0 && s.TickInterval <= 0 {
		return false, nil // quiescent: nothing queued, no timers to wait on
	}
	return true, nil
}

// drainPeers is one drain worker's share of a window: peers w, w+parts, ...
// each pop up to Batch eligible entries and deliver them, handler sends and
// relays buffered per peer for the merge. It runs concurrently with the
// other workers and touches only its own peers' queues, seen-sets, processes
// and drain buffers. A handler panic comes back as an error.
func (s *System) drainPeers(w, parts, step int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("network: panic in bus worker %d at step %d: %v\n%s", w, step, r, debug.Stack())
		}
	}()
	nat := s.native
	for qi := w; qi < len(s.order); qi += parts {
		d := &s.drains[qi]
		d.delivered = 0
		d.trace = d.trace[:0]
		d.contents = d.contents[:0]
		d.sends = d.sends[:0]
		d.relays = d.relays[:0]
		d.taken = 0
		d.filtered = 0
		q := &s.bus.queues[qi]
		proc := s.procs[q.id]
		scanned := 0
		for i := 0; i < q.depth() && d.taken < nat.Batch && scanned < nat.ScanLimit; {
			e := q.at(i)
			scanned++
			if int(e.notBefore) > step || (s.CutTap != nil && s.CutTap(e.hopFrom, q.id, step)) {
				i++ // held: skip, keep scanning
				continue
			}
			d.taken++
			switch {
			case int(e.dst) != qi:
				d.relays = append(d.relays, *e)
			case q.seen != nil && !q.seen.add(e.id):
				d.filtered++
			default:
				d.delivered++
				// Reading the content table is safe here: only the
				// sequential phases append to it, never while workers run.
				m := s.bus.message(e)
				if s.RecordTrace {
					d.trace = append(d.trace, m)
				}
				// Handler sends go to d.sends, so the queue slot e points
				// into is untouched until the call returns.
				proc.Deliver(m, d.send)
			}
			q.removeAt(i) // the next entry slides into index i
		}
		if d.taken > 0 {
			q.lastProgress = step
			q.stalled = false
		}
	}
	return nil
}

// flush releases peer from's buffered handler sends in emission order. Each
// buffered content is stamped with its sender and interned once, at its
// first send to a peer, and every send releases one copy of that id: what
// reaches the bus, the tap and the counters is what one send per record
// would produce, without a Message per copy. Under an egress budget each
// record still takes the send path, since the egress buffer holds Messages.
func (s *System) flush(d *peerDrain, from ProcID) {
	if s.bus.opts.EgressCap > 0 {
		for _, r := range d.sends {
			m := d.contents[r.content]
			m.To = r.to
			s.send(m)
		}
		return
	}
	cur, id := int32(-1), uint32(0)
	for _, r := range d.sends {
		dst, ok := s.bus.queueIndex(r.to)
		if !ok {
			s.DroppedPast++
			continue
		}
		c := &d.contents[r.content]
		if r.content != cur {
			cur = r.content
			c.From = from
			id = s.bus.intern(c)
		}
		s.release(id, from, dst, c.Seq)
	}
}

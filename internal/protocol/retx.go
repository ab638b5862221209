package protocol

import (
	"repro/internal/network"
	"repro/internal/obs"
)

// retxBackoffCap bounds the retransmission backoff (in ticks).
const retxBackoffCap = 8

// Timer is the quiet-period retransmission clock, counted in ticks: the wait
// doubles up to retxBackoffCap after each firing and resets when the owner
// enters a round. Retransmission is activity-gated: a tick period in which
// the owner delivered at least one message skips the countdown entirely, so
// the timer only fires once the process has gone quiet — i.e. once the
// in-flight traffic that should have driven it forward has drained. This
// keeps retransmission from flooding a healthy network (and from starving
// lower-priority traffic under deterministic schedulers) while still
// guaranteeing a re-send whenever a needed message was lost.
//
// Only a message that carries *new* information may be credited as traffic.
// A stale duplicate — a laggard re-flooding its outbox, or Byzantine chatter
// — must not, or a steady stream of no-op deliveries silences every correct
// replica's retransmission and a recovering process can never be caught up
// (a liveness wedge the storage torture campaign actually found).
type Timer struct {
	sawTraffic bool
	wait, left int
}

// SawTraffic credits the current tick period with a useful delivery.
func (t *Timer) SawTraffic() { t.sawTraffic = true }

// ResetBackoff is called on round entry: the next quiet tick fires at once.
func (t *Timer) ResetBackoff() { t.wait, t.left = 0, 0 }

// Due advances the clock by one tick and reports whether the owner must
// retransmit now.
func (t *Timer) Due() bool {
	if t.sawTraffic {
		t.sawTraffic = false // traffic flowed this period: no need to re-send
		return false
	}
	if t.left > 0 {
		t.left--
		return false
	}
	if t.wait < retxBackoffCap {
		if t.wait == 0 {
			t.wait = 1
		} else {
			t.wait *= 2
		}
	}
	t.left = t.wait
	return true
}

// Outbox records every logical broadcast a replica has made (all rounds) and
// re-broadcasts the record verbatim when its Timer fires. Handlers are
// idempotent, and re-sending the *recorded* content (rather than recomputing
// it) is what keeps a crash-recovered replica from equivocating against its
// pre-crash messages. The whole outbox — not just the current round — goes
// out: a replica recovering from a crash (or emerging from a partition) may
// be many rounds behind and needs the old-round quorums replayed.
type Outbox struct {
	Timer
	peers []network.ProcID
	msgs  []network.Message
	// retransmissions is the owning protocol's counter (observational only —
	// campaign verdicts fold per-seed event counts deterministically, see
	// internal/faults).
	retransmissions *obs.Counter
}

// NewOutbox builds an empty outbox broadcasting to peers and counting its
// retransmissions on the owning protocol's counter.
func NewOutbox(peers []network.ProcID, retransmissions *obs.Counter) Outbox {
	return Outbox{
		peers:           append([]network.ProcID(nil), peers...),
		retransmissions: retransmissions,
	}
}

// Broadcast sends m to every peer and records it for retransmission.
func (o *Outbox) Broadcast(send network.Sender, m network.Message) {
	o.msgs = append(o.msgs, m)
	network.Broadcast(send, o.peers, m)
}

// Retransmit immediately re-broadcasts every recorded logical broadcast.
func (o *Outbox) Retransmit(send network.Sender) {
	o.retransmissions.Inc()
	for _, m := range o.msgs {
		network.Broadcast(send, o.peers, m)
	}
}

// OnTick is the owner's network.Ticker body.
func (o *Outbox) OnTick(send network.Sender) {
	if o.Due() {
		o.Retransmit(send)
	}
}

// Messages is the record, in broadcast order (the snapshot body encodes it).
func (o *Outbox) Messages() []network.Message { return o.msgs }

// Reboot replaces the record with a recovered one. The volatile timer
// resets, so a recovered replica re-announces its outbox promptly.
func (o *Outbox) Reboot(msgs []network.Message) {
	o.msgs = msgs
	o.Timer = Timer{}
}

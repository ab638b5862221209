package network

import (
	"fmt"
	"math/bits"
)

// Topology decides how a message physically travels from its sender to its
// destination. The base network is fully connected — every pair of processes
// shares a direct authenticated link — but the bus also supports sparse
// gossip overlays where a message is relayed hop by hop through intermediate
// peers' queues. Topologies are consulted only by the bus's native drain
// mode; the flat-loop compatibility shim is always fully connected, because
// the adversarial Scheduler contract exposes end-to-end messages, not hops.
type Topology interface {
	// NextHop returns the next peer on the route from at to dst. It must
	// return dst itself when at has a direct link (or when at == dst), and
	// must make strict progress: repeatedly applying NextHop from any peer
	// reaches dst in a bounded number of hops.
	NextHop(at, dst ProcID) ProcID
	// Neighbors returns the peers `of` has direct links to, or nil when the
	// topology is fully connected.
	Neighbors(of ProcID) []ProcID
	// Name identifies the topology in stats and scenario encodings.
	Name() string
}

// FullMesh is the paper's system model: a reliable fully-connected
// point-to-point network. Every message is delivered on a direct link.
type FullMesh struct{}

// NextHop implements Topology.
func (FullMesh) NextHop(_, dst ProcID) ProcID { return dst }

// Neighbors implements Topology (nil = everyone).
func (FullMesh) Neighbors(ProcID) []ProcID { return nil }

// Name implements Topology.
func (FullMesh) Name() string { return "full" }

// Kadcast is a kadcast-style structured gossip overlay: peer IDs are treated
// as points in an XOR metric space and each peer keeps one link per distance
// bucket (the peer obtained by flipping one bit of its own ID, when that ID
// exists). Routing is greedy: forward to the neighbor strictly closest to
// the destination in XOR distance, falling back to a direct link when no
// neighbor improves on it. Because the XOR distance to the destination
// strictly decreases at every hop the route is loop-free and at most
// ceil(log2 n) hops long on power-of-two populations.
type Kadcast struct {
	n int
}

// NewKadcast builds the overlay for processes 0..n-1.
func NewKadcast(n int) (*Kadcast, error) {
	if n < 2 {
		return nil, fmt.Errorf("network: kadcast needs at least 2 processes, got %d", n)
	}
	return &Kadcast{n: n}, nil
}

// Neighbors implements Topology: the single-bit-flip peers that exist.
func (k *Kadcast) Neighbors(of ProcID) []ProcID {
	var out []ProcID
	for b := 0; 1<<b < k.n; b++ {
		nb := int(of) ^ (1 << b)
		if nb < k.n {
			out = append(out, ProcID(nb))
		}
	}
	return out
}

// NextHop implements Topology: greedy XOR-distance routing with a direct
// fallback. Flipping a set bit b of at^dst cuts the distance by 1<<b, the
// highest one most, and flipping a clear bit grows it, so the greedy hop
// flips the highest set bit whose flipped ID exists. Only the bits of peer
// IDs (1<<b < n) are candidates, so a sender outside the peer set (an
// injected message) still gets a first hop that stays below n. Populations
// that are not powers of two leave holes in the bucket structure (the flipped
// ID may not exist); when every candidate is a hole the direct fallback keeps
// the route valid, it just makes it one hop.
func (k *Kadcast) NextHop(at, dst ProcID) ProcID {
	peerBits := uint(1)<<bits.Len(uint(k.n-1)) - 1
	for x := uint(at^dst) & peerBits; x != 0; {
		b := uint(1) << (bits.Len(x) - 1)
		if nb := at ^ ProcID(b); nb < ProcID(k.n) {
			return nb
		}
		x &^= b
	}
	return dst
}

// Name implements Topology.
func (k *Kadcast) Name() string { return "gossip" }

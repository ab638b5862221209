package network

import "testing"

// nextHopReference is the greedy XOR-distance hop by exhaustive search: try
// every single-bit flip of at that exists and keep the one strictly closest
// to dst, else go direct. Kadcast.NextHop must choose exactly this hop.
func nextHopReference(n int, at, dst ProcID) ProcID {
	if at == dst {
		return dst
	}
	best := dst // direct long link: distance 0, always strict progress
	bestD := int(at) ^ int(dst)
	for b := 0; 1<<b < n; b++ {
		nb := int(at) ^ (1 << b)
		if nb >= n {
			continue
		}
		if d := nb ^ int(dst); d < bestD {
			best, bestD = ProcID(nb), d
		}
	}
	return best
}

// TestKadcastNextHopMatchesReference pins NextHop to the exhaustive search for
// every destination of every population up to 300, from every peer and from
// the senders outside the peer set an injected message may name, [-n, 0) and
// [n, 2n).
func TestKadcastNextHopMatchesReference(t *testing.T) {
	for n := 1; n <= 300; n++ {
		k := &Kadcast{n: n}
		for at := ProcID(-n); int(at) < 2*n; at++ {
			for dst := ProcID(0); int(dst) < n; dst++ {
				if got, want := k.NextHop(at, dst), nextHopReference(n, at, dst); got != want {
					t.Fatalf("n=%d: NextHop(%d, %d) = %d, want %d", n, at, dst, got, want)
				}
			}
		}
	}
}

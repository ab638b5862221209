package service

import (
	"context"
	"sync"

	"repro/internal/schema"
	"repro/internal/spec"
)

// flightGroup deduplicates concurrent identical verification runs: all
// callers presenting the same content-address share one engine run and
// receive the same result. This is the request-coalescing layer above the
// cache — the cache deduplicates across time, the group across concurrency,
// so a thundering herd of identical submissions costs one solve.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	res  schema.Result
	err  error
	// expired records that the leader's own deadline had passed when its run
	// returned: a Budget result is then the leader's clock, not the key's
	// verdict.
	expired bool
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do runs fn under the key, or waits for the in-flight run of the same key.
// The second return reports whether the caller shared another caller's run
// (false for the leader).
//
// The key deliberately excludes deadlines, so a deadline is each caller's
// own: a follower stops waiting when its ctx expires (and gets expired, its
// own budget row), and the Budget result of a leader whose deadline ran out
// is never handed to a follower, who re-enters and may lead the next run
// under its own deadline. (A Budget the engine reaches with time to spare —
// the structural schema cutoff — is the key's verdict and is shared.)
func (g *flightGroup) do(ctx context.Context, key string, expired schema.Result, fn func() (schema.Result, error)) (schema.Result, bool, error) {
	for {
		g.mu.Lock()
		c, ok := g.calls[key]
		if !ok {
			c = &flightCall{done: make(chan struct{})}
			g.calls[key] = c
			g.mu.Unlock()

			c.res, c.err = fn()
			c.expired = ctx.Err() != nil

			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
			close(c.done)
			return c.res, false, c.err
		}
		g.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return expired, false, nil
		}
		if c.err != nil || c.res.Outcome != spec.Budget || !c.expired {
			return c.res, true, c.err
		}
	}
}

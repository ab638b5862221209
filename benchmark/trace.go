package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// The benchmark's own tracer. Spans are recorded only from this package,
// around calls into a layer's public functions; the program under test is
// not instrumented. A nil *tracer is the untraced run: every method is a
// no-op behind one pointer check, which is what makes the traced-minus-
// untraced wall difference a measurement of this file's cost.

// span is one timed call. Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int64  `json:"req"`    // spans of one request share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef is a handle to an open span; the zero value (untraced run) is
// inert.
type spanRef struct {
	t   *tracer
	id  int
	req int64
}

// start opens a span under parent. req tags the request the span belongs to;
// 0 inherits the parent's.
func (t *tracer) start(parent spanRef, req int64, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	if req == 0 {
		req = parent.req
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Req: req, Name: name, Start: now})
	t.mu.Unlock()
	return spanRef{t: t, id: id, req: req}
}

// child opens a span under s on the same request.
func (s spanRef) child(name string) spanRef { return s.t.start(s, 0, name) }

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.epoch).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = now
	s.t.mu.Unlock()
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeJSONL dumps every span, one JSON object per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// chainNode is one step of a blocking chain, aggregated by span-name path:
// how often the step sat on the chain, how long it blocked in total, and how
// much of that was its own time rather than a blocking child's.
type chainNode struct {
	Path   string  `json:"path"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// blockingChain decomposes the root span into the steps that blocked its
// completion. Walking back from a span's end, the child that finished last
// is what the span was waiting for; time no child covers is the span's own.
// Children that overlap the blocking child ran concurrently and are off the
// chain. The decomposition partitions the root's interval, so the self times
// of the returned nodes sum to the root's duration.
func (t *tracer) blockingChain(root spanRef) []chainNode {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]int, len(spans))
	for i := range spans {
		children[spans[i].Parent] = append(children[spans[i].Parent], i)
	}
	agg := map[string]*chainNode{}
	var order []string
	var walk func(i int, path string, from, to int64)
	walk = func(i int, path string, from, to int64) {
		n := agg[path]
		if n == nil {
			n = &chainNode{Path: path}
			agg[path] = n
			order = append(order, path)
		}
		n.Count++
		n.TotalS += float64(to-from) / 1e9
		kids := children[spans[i].ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].End > spans[kids[b]].End })
		cursor := to
		for _, k := range kids {
			c := spans[k]
			end := min(c.End, cursor)
			start := max(c.Start, from)
			if end <= start {
				continue // overlapped by a later-finishing sibling, or empty
			}
			n.SelfS += float64(cursor-end) / 1e9
			walk(k, path+" > "+c.Name, start, end)
			cursor = start
		}
		n.SelfS += float64(cursor-from) / 1e9
	}
	r := spans[root.id-1]
	walk(root.id-1, r.Name, r.Start, r.End)
	out := make([]chainNode, len(order))
	for i, p := range order {
		out[i] = *agg[p]
	}
	return out
}

// formatChain renders the chain indented by depth.
func formatChain(nodes []chainNode) string {
	var b strings.Builder
	for _, n := range nodes {
		steps := strings.Split(n.Path, " > ")
		fmt.Fprintf(&b, "%s%s: %s s total, %s s self, x%d\n", strings.Repeat("  ", len(steps)+1),
			steps[len(steps)-1], fmtFloat(n.TotalS), fmtFloat(n.SelfS), n.Count)
	}
	return b.String()
}

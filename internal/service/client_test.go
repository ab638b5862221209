package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A 429 with Retry-After is retried until the server relents, and the retry
// wait never undercuts the server's hint.
func TestClientRetries429(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"overloaded"}`))
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	c := &HTTPClient{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
	}
	var out struct {
		OK bool `json:"ok"`
	}
	status, err := c.GetJSON(context.Background(), ts.URL, &out)
	if err != nil || status != http.StatusOK || !out.OK {
		t.Fatalf("GetJSON = (%d, %v), out=%+v; want 200 ok", status, err, out)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
}

// A server that never relents exhausts the bounded budget and surfaces the
// final 429 with its error body and the attempt count.
func TestClientRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"overloaded"}`))
	}))
	defer ts.Close()

	c := &HTTPClient{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	status, err := c.PostJSON(context.Background(), ts.URL, map[string]string{}, nil)
	if status != http.StatusTooManyRequests || err == nil {
		t.Fatalf("PostJSON = (%d, %v), want terminal 429 error", status, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want exactly the 3-attempt budget", calls.Load())
	}
}

// Non-429 server errors are terminal: no retry, server message preserved.
func TestClientServerErrorNoRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"unknown model"}`))
	}))
	defer ts.Close()

	c := &HTTPClient{MaxAttempts: 5, BaseDelay: time.Millisecond}
	status, err := c.PostJSON(context.Background(), ts.URL, map[string]string{}, nil)
	if status != http.StatusBadRequest || err == nil {
		t.Fatalf("PostJSON = (%d, %v), want 400 error", status, err)
	}
	if got := err.Error(); got != "server returned 400: unknown model" {
		t.Fatalf("error = %q", got)
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d calls, want 1 (no retry on 400)", calls.Load())
	}
}

// Transport failures fail fast by default and retry under RetryTransport —
// the mode cluster workers use to outlive a coordinator restart.
func TestClientTransportRetry(t *testing.T) {
	// Reserve an address with no listener behind it.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close()

	c := &HTTPClient{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	if status, err := c.GetJSON(context.Background(), url, nil); status != 0 || err == nil {
		t.Fatalf("fail-fast GetJSON = (%d, %v), want (0, error)", status, err)
	}

	start := time.Now()
	c2 := &HTTPClient{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, RetryTransport: true}
	status, err := c2.GetJSON(context.Background(), url, nil)
	if status != 0 || err == nil {
		t.Fatalf("retrying GetJSON = (%d, %v), want (0, error)", status, err)
	}
	if time.Since(start) < 2*time.Millisecond {
		t.Fatalf("RetryTransport client gave up without backing off")
	}
}

// HardenServer fills slowloris defenses only when unset.
func TestHardenServer(t *testing.T) {
	s := HardenServer(&http.Server{})
	if s.ReadHeaderTimeout == 0 || s.IdleTimeout == 0 {
		t.Fatalf("HardenServer left timeouts unset: %+v", s)
	}
	custom := HardenServer(&http.Server{ReadHeaderTimeout: time.Second})
	if custom.ReadHeaderTimeout != time.Second {
		t.Fatalf("HardenServer overwrote an explicit ReadHeaderTimeout")
	}
}

// The backoff arithmetic, pinned directly: a Retry-After hint larger than the
// local cap must win (the server knows its own recovery horizon), and the
// exponential ramp stays within [base, max+50% jitter] otherwise.
func TestClientBackoffRetryAfterDominates(t *testing.T) {
	c := &HTTPClient{BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 1}
	if d := c.backoff(1, 10*time.Second); d != 10*time.Second {
		t.Fatalf("backoff(1, 10s) = %v, want the server's 10s hint to dominate the 4ms cap", d)
	}
	// No hint: every step obeys base<<k clamped to MaxDelay, plus at most 50%.
	for attempt := 1; attempt <= 12; attempt++ {
		d := c.backoff(attempt, 0)
		if d < time.Millisecond || d > 6*time.Millisecond {
			t.Fatalf("backoff(%d, 0) = %v, want within [1ms, 4ms+50%%]", attempt, d)
		}
	}
	// A huge attempt number must not overflow into a negative or zero delay.
	if d := c.backoff(63, 0); d < time.Millisecond || d > 6*time.Millisecond {
		t.Fatalf("backoff(63, 0) = %v; shift overflow escaped the clamp", d)
	}
}

// parseRetryAfter: seconds are honored, absence and garbage (including the
// negative and non-integer forms proxies emit) all collapse to zero rather
// than stalling the client.
func TestClientParseRetryAfter(t *testing.T) {
	mk := func(v string) http.Header {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return h
	}
	for _, tc := range []struct {
		header string
		want   time.Duration
	}{
		{"", 0},
		{"2", 2 * time.Second},
		{"0", 0},
		{"-3", 0},
		{"soon", 0},
		{"1.5", 0},
		{"Wed, 21 Oct 2026 07:28:00 GMT", 0},
	} {
		if got := parseRetryAfter(mk(tc.header)); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

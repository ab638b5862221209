package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/queue"
)

// HTTPClient is the shared JSON-over-HTTP client of the verification stack:
// `holistic verify -remote`, `holistic queue` and the cluster workers all speak
// through it. Its one job beyond plumbing is backpressure etiquette — a 429
// is an invitation to come back, not a failure, so the client honors
// Retry-After, layers jittered exponential backoff on top, and only gives up
// once a bounded retry budget is spent. Transport errors are retried on the
// same schedule when RetryTransport is set (cluster workers outlive
// coordinator restarts that way); otherwise they fail fast.
type HTTPClient struct {
	// HTTP is the underlying client (default: a client with a 2-minute
	// overall timeout; verification responses can be slow to compute).
	HTTP *http.Client
	// MaxAttempts bounds total tries per request, first included (default 5).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 200ms); the delay for
	// attempt k is min(BaseDelay<<k, MaxDelay) plus up to 50% jitter, and
	// never below the server's Retry-After.
	BaseDelay time.Duration
	// MaxDelay caps one backoff step (default 3s).
	MaxDelay time.Duration
	// Seed makes the jitter replayable (0 = 1): retry timing never affects
	// verdicts, but deterministic schedules keep torture failures replayable.
	Seed int64
	// RetryTransport retries connection-level failures too (for daemons that
	// must ride out a server restart); off, they surface immediately.
	RetryTransport bool
	// Logf receives one line per retry (default: silent).
	Logf func(format string, args ...any)

	mu  sync.Mutex
	rng *rand.Rand
}

func (c *HTTPClient) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 2 * time.Minute}
}

func (c *HTTPClient) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 5
}

func (c *HTTPClient) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// backoff computes the sleep before retry attempt (1-based), folding in the
// server's Retry-After hint when larger.
func (c *HTTPClient) backoff(attempt int, retryAfter time.Duration) time.Duration {
	base := c.BaseDelay
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	maxd := c.MaxDelay
	if maxd <= 0 {
		maxd = 3 * time.Second
	}
	c.mu.Lock()
	if c.rng == nil {
		seed := c.Seed
		if seed == 0 {
			seed = 1
		}
		c.rng = rand.New(rand.NewSource(seed))
	}
	d := queue.Backoff(base, maxd, attempt, c.rng)
	c.mu.Unlock()
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// parseRetryAfter reads a Retry-After header in seconds (the only form the
// servers here emit); absent or unparseable yields zero.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// errorBodyOf decodes the standard {"error": ...} payload, falling back to
// the raw body.
func errorBodyOf(data []byte) string {
	var eb errorBody
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		return eb.Error
	}
	if len(data) > 200 {
		data = data[:200]
	}
	return string(bytes.TrimSpace(data))
}

// DoJSON sends one JSON request (in == nil sends no body) and decodes a 2xx
// response into out (out == nil discards it). It returns the final HTTP
// status: 429s are retried per the budget above and only the last one is
// returned; any other non-2xx returns an error carrying the server's message
// without retrying. A zero status means the transport failed.
func (c *HTTPClient) DoJSON(ctx context.Context, method, url string, in, out any) (int, error) {
	var body []byte
	if in != nil {
		var err error
		body, err = json.Marshal(in)
		if err != nil {
			return 0, err
		}
	}
	attempts := c.maxAttempts()
	var lastErr error
	lastStatus := 0
	for attempt := 1; ; attempt++ {
		var rd io.Reader
		if in != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return 0, err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.httpClient().Do(req)
		var retryAfter time.Duration
		switch {
		case err != nil:
			lastStatus, lastErr = 0, err
			if !c.RetryTransport {
				return 0, err
			}
		case resp.StatusCode == http.StatusTooManyRequests:
			data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			retryAfter = parseRetryAfter(resp.Header)
			lastStatus = resp.StatusCode
			lastErr = fmt.Errorf("server shed the request: %s", errorBodyOf(data))
		default:
			defer resp.Body.Close()
			if resp.StatusCode/100 != 2 {
				data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
				return resp.StatusCode, fmt.Errorf("server returned %d: %s", resp.StatusCode, errorBodyOf(data))
			}
			if out != nil && resp.StatusCode != http.StatusNoContent {
				if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
					return resp.StatusCode, fmt.Errorf("decoding response: %w", err)
				}
			}
			return resp.StatusCode, nil
		}
		if attempt >= attempts {
			return lastStatus, fmt.Errorf("%w (after %d attempts)", lastErr, attempt)
		}
		d := c.backoff(attempt, retryAfter)
		c.logf("service: attempt %d/%d failed (%v); retrying in %v", attempt, attempts, lastErr, d)
		select {
		case <-ctx.Done():
			return lastStatus, ctx.Err()
		case <-time.After(d):
		}
	}
}

// PostJSON is DoJSON with POST.
func (c *HTTPClient) PostJSON(ctx context.Context, url string, in, out any) (int, error) {
	return c.DoJSON(ctx, http.MethodPost, url, in, out)
}

// GetJSON is DoJSON with GET and no request body.
func (c *HTTPClient) GetJSON(ctx context.Context, url string, out any) (int, error) {
	return c.DoJSON(ctx, http.MethodGet, url, nil, out)
}

// HardenServer applies the slow-client defenses every HTTP server in this
// repo must carry: an unset ReadHeaderTimeout lets one slowloris connection
// pin a handler goroutine forever, and an unset IdleTimeout accumulates dead
// keep-alive connections. Values are only filled when unset.
func HardenServer(s *http.Server) *http.Server {
	if s.ReadHeaderTimeout == 0 {
		s.ReadHeaderTimeout = 10 * time.Second
	}
	if s.IdleTimeout == 0 {
		s.IdleTimeout = 2 * time.Minute
	}
	return s
}

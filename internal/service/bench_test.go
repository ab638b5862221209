package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// warmServer returns a server whose cache already holds every bundled
// request's verdict (the service_mix request set after its cold pass).
func warmServer(b *testing.B) (*Server, []VerifyRequest) {
	b.Helper()
	s := New(Config{Cache: memCache(b)})
	reqs := bundledRequests(b)
	for i := range reqs {
		if _, _, err := s.verify(context.Background(), &reqs[i]); err != nil {
			b.Fatal(err)
		}
	}
	return s, reqs
}

// BenchmarkWarmVerify is one in-process warm hit — memo, cache lookup
// (re-certifying bosco/OneStepGap's counterexample), row and response — over
// the 33 bundled requests in turn.
func BenchmarkWarmVerify(b *testing.B) {
	s, reqs := warmServer(b)
	runs := s.EngineRuns()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.verify(ctx, &reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s.EngineRuns() != runs {
		b.Fatal("a warm hit ran the engine")
	}
}

// BenchmarkWarmHTTP is the service_mix warm phase in miniature: two
// closed-loop clients posting the bundled requests over loopback HTTP.
func BenchmarkWarmHTTP(b *testing.B) {
	s, reqs := warmServer(b)
	runs := s.EngineRuns()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		bodies[i], _ = json.Marshal(&reqs[i])
	}
	const clients = 2
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer hc.CloseIdleConnections()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < b.N; i += clients {
				resp, err := hc.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(bodies[i%len(bodies)]))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("HTTP %d", resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	if s.EngineRuns() != runs {
		b.Fatal("a warm hit ran the engine")
	}
}

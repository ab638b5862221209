// Verification as a service: start the HTTP serving plane in-process,
// submit the same request twice, and watch the second one come back from
// the content-addressed result cache.
//
// The server content-addresses every request — a SHA-256 over the canonical
// forms of the automaton, the property, the engine configuration and the
// engine version — so identical verification problems share one verdict:
// concurrent duplicates coalesce onto a single engine run (singleflight),
// and later duplicates are answered from the cache without solving at all.
// Cached "violated" verdicts are re-certified by replaying their
// counterexample before being served, so a cache can cost time but never a
// wrong answer.
//
// The same daemon is available from the command line:
//
//	holistic serve -addr 127.0.0.1:8123 -cache-dir /tmp/vcache
//	holistic verify -model simplified -remote http://127.0.0.1:8123
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/service"
	"repro/internal/vcache"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "service:", err)
		os.Exit(1)
	}
}

func run() error {
	cacheDir, err := os.MkdirTemp("", "service-example-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)
	cache, err := vcache.Open(vcache.Options{Dir: cacheDir})
	if err != nil {
		return err
	}

	srv := service.New(service.Config{Cache: cache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s (engine %s)\n\n", base, vcache.EngineVersion)

	req := service.VerifyRequest{Model: "simplified", Prop: "Inv1_0"}
	for _, phase := range []string{"cold", "warm"} {
		start := time.Now()
		resp, err := post(base, req)
		if err != nil {
			return err
		}
		r := resp.Results[0]
		fmt.Printf("%-4s  %s/%s: %s  (%d schemas, %v, cached=%v)\n",
			phase, r.Model, r.Query, r.Outcome, r.Schemas,
			time.Since(start).Round(time.Millisecond), r.Cached)
	}
	fmt.Printf("\nengine runs for two identical requests: %d\n", srv.EngineRuns())
	return nil
}

func post(base string, req service.VerifyRequest) (*service.VerifyResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	httpResp, err := http.Post(base+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server returned %d", httpResp.StatusCode)
	}
	var resp service.VerifyResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

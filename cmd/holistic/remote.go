package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// runRemoteVerify sends one verification request to a `holistic serve`
// daemon and renders the response exactly like a local run: same row
// format (plus a " [cached]" marker on warm verdicts) and an obs report
// whose deterministic section is byte-identical to the local one's — the
// server computes the deterministic fields, the client copies them
// verbatim.
func runRemoteVerify(baseURL string, req *service.VerifyRequest, stats bool, of *obsFlags) error {
	sink, err := of.open("holistic verify")
	if err != nil {
		return err
	}
	defer sink.Close()

	// The shared client rides out 429s with Retry-After-aware jittered
	// backoff before giving up; connection failures to an explicit -remote
	// target surface immediately (no RetryTransport — a user-pointed URL
	// that refuses connections is most likely a typo, not a restart).
	client := &service.HTTPClient{
		Logf: func(format string, a ...any) { fmt.Fprintf(os.Stderr, "holistic: "+format+"\n", a...) },
	}
	var resp service.VerifyResponse
	if status, err := client.PostJSON(context.Background(), baseURL+"/v1/verify", req, &resp); err != nil {
		if status == 0 {
			return fmt.Errorf("reaching %s: %w", baseURL, err)
		}
		return err
	}

	obsRep := &obs.Report{Tool: "holistic verify"}
	for _, r := range resp.Results {
		obsRep.Deterministic.Queries = append(obsRep.Deterministic.Queries, r.QueryMetrics)
		obsRep.Observational.Timings = append(obsRep.Observational.Timings, obs.QueryTimings{
			Model: r.Model, Query: r.Query, ElapsedNS: r.ElapsedNS,
		})
		verdictRow{
			query: r.Query, outcome: r.Outcome, schemas: r.Schemas, avgLen: r.AvgLen,
			elapsed: time.Duration(r.ElapsedNS), cached: r.Cached, solver: r.Solver, ceText: r.CEText,
		}.print(stats)
	}
	finalizeReport(obsRep, 0, false)
	return sink.Flush(obsRep)
}

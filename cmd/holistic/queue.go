package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/service"
)

// cmdQueue is the client side of the durable ingestion plane: it talks to a
// daemon started with `holistic serve -queue-dir`. The default action prints
// /v1/queue/status; -enqueue submits a job, -job polls one to a terminal
// state, -dead lists the quarantined jobs.
func cmdQueue(args []string) error {
	fs := flag.NewFlagSet("queue", flag.ContinueOnError)
	url := fs.String("url", "http://127.0.0.1:8123", "service base URL")
	enqueue := fs.Bool("enqueue", false, "enqueue one verification job (-model/-prop/-mode/-tenant/-tag/-force)")
	model := fs.String("model", "bv", modelHelp()+" (for -enqueue)")
	prop := fs.String("prop", "", "property for -enqueue (empty = all properties of the model)")
	mode := fs.String("mode", "", "schema mode for -enqueue: staged (default) or full")
	tenant := fs.String("tenant", "", "tenant the job is billed to (default: \"default\")")
	tag := fs.String("tag", "", "distinguishing tag: identical requests with different tags are distinct jobs")
	force := fs.Bool("force", false, "skip the pre-enqueue cache short-circuit; always mint a real job")
	jobID := fs.String("job", "", "poll this job ID to a terminal state and print its verdicts")
	dead := fs.Bool("dead", false, "list the dead-letter log")
	waitIdle := fs.Bool("wait-idle", false, "with -status: poll until the backlog is fully drained")
	poll := fs.Duration("poll", 250*time.Millisecond, "poll interval for -job and -wait-idle")
	timeout := fs.Duration("timeout", 10*time.Minute, "overall budget for -job and -wait-idle polling")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := strings.TrimRight(*url, "/")
	client := &service.HTTPClient{RetryTransport: false}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch {
	case *enqueue:
		req, err := verifyRequest(*model, "", "", *prop, *mode, 0)
		if err != nil {
			return err
		}
		return queueEnqueue(ctx, client, base, service.EnqueueRequest{
			VerifyRequest: *req, Tenant: *tenant, Tag: *tag, Force: *force,
		})
	case *jobID != "":
		out, err := queuePollJob(ctx, client, base, *jobID, *poll)
		if err != nil {
			return err
		}
		printResponse(out.Results, false)
		if out.State == "dead" {
			return fmt.Errorf("job %s was dead-lettered: %s", out.ID, out.Reason)
		}
		return nil
	case *dead:
		var out struct {
			Dead []json.RawMessage `json:"dead"`
		}
		if _, err := client.GetJSON(ctx, base+"/v1/queue/dead", &out); err != nil {
			return err
		}
		for _, dl := range out.Dead {
			fmt.Println(string(dl))
		}
		fmt.Fprintf(os.Stderr, "holistic: %d dead-lettered job(s)\n", len(out.Dead))
		return nil
	default:
		return queueStatus(ctx, client, base, *waitIdle, *poll)
	}
}

// queueEnqueue submits one job and reports how it was accepted: short-
// circuited from the cache, served through the degraded synchronous path, or
// durably acked with a job ID.
func queueEnqueue(ctx context.Context, client *service.HTTPClient, base string, req service.EnqueueRequest) error {
	var out service.EnqueueResponse
	status, err := client.PostJSON(ctx, base+"/v1/enqueue", &req, &out)
	if err != nil {
		return err
	}
	switch {
	case out.Degraded != "":
		fmt.Fprintf(os.Stderr, "holistic: served synchronously, queue degraded: %s\n", out.Degraded)
		printResponse(out.Results, false)
	case status == http.StatusOK && out.ID == "":
		fmt.Fprintln(os.Stderr, "holistic: every verdict was already cached; no job spent")
		printResponse(out.Results, false)
	default:
		dup := ""
		if out.Duplicate {
			dup = " (duplicate of an existing job)"
		}
		fmt.Printf("enqueued %s state=%s%s\n", out.ID, out.State, dup)
	}
	return nil
}

// queuePollJob polls one job until done or dead.
func queuePollJob(ctx context.Context, client *service.HTTPClient, base, id string, poll time.Duration) (service.EnqueueResponse, error) {
	for {
		var out service.EnqueueResponse
		if _, err := client.GetJSON(ctx, base+"/v1/queue/jobs/"+id, &out); err != nil {
			return out, err
		}
		if out.State == "done" || out.State == "dead" {
			return out, nil
		}
		select {
		case <-ctx.Done():
			return out, fmt.Errorf("job %s still %s: %w", id, out.State, ctx.Err())
		case <-time.After(poll):
		}
	}
}

// queueStatus prints /v1/queue/status once, or keeps polling until the
// backlog drains when waitIdle is set.
func queueStatus(ctx context.Context, client *service.HTTPClient, base string, waitIdle bool, poll time.Duration) error {
	for {
		var st struct {
			Enabled   bool   `json:"enabled"`
			Degraded  string `json:"degraded"`
			Consumers int    `json:"consumers"`
			Queue     struct {
				Depth     int            `json:"depth"`
				Inflight  int            `json:"inflight"`
				Waiting   int            `json:"retry_waiting"`
				Enqueued  int64          `json:"enqueued"`
				Done      int64          `json:"done"`
				Dead      int64          `json:"dead"`
				Retries   int64          `json:"retries"`
				PerTenant map[string]int `json:"per_tenant"`
			} `json:"queue"`
		}
		if _, err := client.GetJSON(ctx, base+"/v1/queue/status", &st); err != nil {
			return err
		}
		if !st.Enabled {
			fmt.Printf("queue disabled (%s)\n", st.Degraded)
			return nil
		}
		fmt.Printf("queue: depth=%d inflight=%d waiting=%d consumers=%d enqueued=%d done=%d dead=%d retries=%d",
			st.Queue.Depth, st.Queue.Inflight, st.Queue.Waiting, st.Consumers,
			st.Queue.Enqueued, st.Queue.Done, st.Queue.Dead, st.Queue.Retries)
		if st.Degraded != "" {
			fmt.Printf(" degraded=%q", st.Degraded)
		}
		fmt.Println()
		for tn, n := range st.Queue.PerTenant {
			fmt.Printf("  tenant %-16s %d unfinished\n", tn, n)
		}
		if !waitIdle || (st.Queue.Depth == 0 && st.Queue.Inflight == 0 && st.Queue.Waiting == 0) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("backlog never drained: %w", ctx.Err())
		case <-time.After(poll):
		}
	}
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/vcache"
)

// bundledRequests is one single-property request per query of the five
// bundled models the service_mix benchmark replays (33 in all; bosco's
// OneStepGap is the violated one).
func bundledRequests(t testing.TB) []VerifyRequest {
	t.Helper()
	var reqs []VerifyRequest
	for _, m := range []string{"bv", "simplified", "strb", "bosco", "sba"} {
		_, qs, err := BuiltinModel(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			reqs = append(reqs, VerifyRequest{Model: m, Prop: qs[i].Name})
		}
	}
	return reqs
}

// specPayload reads one of the shipped specs/ files.
func specPayload(t testing.TB, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "specs", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// tryVerify is postVerify for goroutines other than the test's own: it
// reports failure as an error instead of stopping the test.
func tryVerify(url string, req *VerifyRequest) (*VerifyResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	httpResp, err := http.Post(url+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("verify %+v returned %d", *req, httpResp.StatusCode)
	}
	var resp VerifyResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// normalized renders a response with its volatile fields (wall clocks, the
// cached and shared marks) zeroed: what must be identical on every serve.
func normalized(resp *VerifyResponse) string {
	out := *resp
	out.ElapsedNS = 0
	out.Results = append([]QueryResult(nil), resp.Results...)
	for i := range out.Results {
		out.Results[i].ElapsedNS = 0
		out.Results[i].Cached = false
		out.Results[i].Shared = false
	}
	data, _ := json.Marshal(&out) // plain structs: cannot fail
	return string(data)
}

// Warm hits on every bundled request, a ta+spec payload and the violated
// bosco/OneStepGap (re-certified by replay on every hit) from two goroutines
// at once: each response equals the first one for its request, no hit runs
// the engine or fills the memo, and the memoized keys are the ones a fresh
// Resolve + schema.New derives. Run with -race: hits share the resolution.
func TestWarmHitsShareResolution(t *testing.T) {
	s, ts := newTestServer(t, Config{Cache: memCache(t)})
	reqs := append(bundledRequests(t), VerifyRequest{TA: specPayload(t, "strb.ta"), Spec: specPayload(t, "strb.ltl")})

	first := make([]string, len(reqs))
	for i := range reqs {
		resp, _ := postVerify(t, ts.URL, reqs[i])
		first[i] = normalized(resp)
	}
	// The ta+spec payload is strb's own automaton and property file, so
	// its three queries key like the bundled strb requests and hit.
	runs := s.EngineRuns()
	if want := int64(33); runs != want {
		t.Fatalf("cold pass ran the engine %d times, want %d", runs, want)
	}
	fills, hits := mResolutions.Load(), mResolutionHits.Load()

	const perClient = 200
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				i := (k*7 + c*13) % len(reqs)
				resp, err := tryVerify(ts.URL, &reqs[i])
				if err != nil {
					t.Error(err)
					return
				}
				for _, r := range resp.Results {
					if !r.Cached {
						t.Errorf("%+v: %s served uncached on a warm repeat", reqs[i].Prop, r.Query)
					}
				}
				if got := normalized(resp); got != first[i] {
					t.Errorf("request %d: warm response differs from the first:\n got %s\nwant %s", i, got, first[i])
				}
			}
		}(c)
	}
	wg.Wait()
	if s.EngineRuns() != runs {
		t.Fatalf("warm hits ran the engine %d times", s.EngineRuns()-runs)
	}
	if d := mResolutions.Load() - fills; d != 0 {
		t.Errorf("warm hits filled the memo %d times, want 0", d)
	}
	if d := mResolutionHits.Load() - hits; d != 2*perClient {
		t.Errorf("%d memo hits counted, want %d", d, 2*perClient)
	}

	for i := range reqs {
		s.memoMu.RLock()
		r := s.memo[memoKey(&reqs[i])]
		s.memoMu.RUnlock()
		if r == nil {
			t.Fatalf("request %d not memoized", i)
		}
		fresh, err := Resolve(&reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		eng, err := schema.New(fresh.TA, schema.Options{Mode: fresh.Mode})
		if err != nil {
			t.Fatal(err)
		}
		if r.label != fresh.Label || r.mode != eng.Opts().Mode || len(r.keys) != len(fresh.Queries) {
			t.Fatalf("request %d: memo holds %s/%v with %d keys, fresh resolution is %s/%v with %d queries",
				i, r.label, r.mode, len(r.keys), fresh.Label, eng.Opts().Mode, len(fresh.Queries))
		}
		for j := range fresh.Queries {
			want := vcache.Key(eng.TA(), &fresh.Queries[j], vcache.ConfigOf(eng.Opts()), vcache.EngineVersion)
			if r.queries[j].Name != fresh.Queries[j].Name || r.keys[j] != want {
				t.Errorf("request %d query %s: memo key %s, fresh key %s", i, fresh.Queries[j].Name, r.keys[j], want)
			}
		}
	}
}

// A memo hit is no licence to trust the cache: a tampered violated entry
// under the memoized key is refused on re-certification, the property is
// re-verified, and the real verdict is served and stored again.
func TestMemoHitStillRecertifies(t *testing.T) {
	cache := memCache(t)
	s, ts := newTestServer(t, Config{Cache: cache})
	req := VerifyRequest{Model: "bosco", Prop: "OneStepGap"}

	cold, _ := postVerify(t, ts.URL, req)
	if got := cold.Results[0].Outcome; got != "violated" || cold.Results[0].CEText == "" {
		t.Fatalf("bosco/OneStepGap cold outcome %q (ce %q), want a violation with a counterexample", got, cold.Results[0].CEText)
	}
	p, err := s.prepare(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	p.cancel()
	key := p.keys[0]
	ent, ok := cache.Get(key)
	if !ok || ent.CE == nil || len(ent.CE.Steps) == 0 {
		t.Fatalf("no violated entry with steps under the memoized key: %+v", ent)
	}
	bad := *ent
	badCE := *ent.CE
	badCE.Steps = append([]vcache.CEStep(nil), ent.CE.Steps...)
	badCE.Steps[0].Factor += 1000
	bad.CE = &badCE
	if err := cache.Put(&bad); err != nil {
		t.Fatal(err)
	}

	runs, fills := s.EngineRuns(), mResolutions.Load()
	again, _ := postVerify(t, ts.URL, req)
	if mResolutions.Load() != fills {
		t.Fatal("the repeat did not come from the memo")
	}
	if s.EngineRuns() != runs+1 {
		t.Fatalf("tampered entry cost %d engine runs, want exactly 1 re-verification", s.EngineRuns()-runs)
	}
	if again.Results[0].Cached {
		t.Fatal("tampered counterexample was served as a cache hit")
	}
	if normalized(again) != normalized(cold) {
		t.Fatalf("re-verified response differs from the cold one:\n got %s\nwant %s", normalized(again), normalized(cold))
	}
	warm, _ := postVerify(t, ts.URL, req)
	if !warm.Results[0].Cached || normalized(warm) != normalized(cold) {
		t.Fatalf("the re-verified verdict was not stored back: cached=%v", warm.Results[0].Cached)
	}
}

// The memo is bounded, and a request that fails to resolve is never stored:
// it is refused with the same 400 every time.
func TestMemoBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	strb, ltl := specPayload(t, "strb.ta"), specPayload(t, "strb.ltl")
	fills := mResolutions.Load()
	for i := 0; i < 300; i++ {
		req := VerifyRequest{
			TA:   strings.Replace(strb, "automaton st-reliable-broadcast", fmt.Sprintf("automaton m%d", i), 1),
			Spec: ltl,
			Prop: "Unforgeability",
		}
		r, err := s.resolve(&req)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("m%d", i); r.label != want {
			t.Fatalf("payload %d resolved as %q, want %q", i, r.label, want)
		}
	}
	if d := mResolutions.Load() - fills; d != 300 {
		t.Fatalf("%d memo fills for 300 distinct payloads", d)
	}
	s.memoMu.RLock()
	size := len(s.memo)
	s.memoMu.RUnlock()
	if size > memoCap {
		t.Fatalf("memo holds %d entries, bound is %d", size, memoCap)
	}

	fills = mResolutions.Load()
	for _, body := range []string{
		`{"model":"simplified","mode":"warp"}`,
		`{"model":"simplified","prop":"NoSuchProp"}`,
		`{"ta":"automaton {","spec":"p: [](locA == 0);"}`,
	} {
		var first string
		for k := 0; k < 3; k++ {
			resp, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s: status %d, want 400", body, resp.StatusCode)
			}
			if k == 0 {
				first = string(data)
			} else if string(data) != first {
				t.Fatalf("%s: 400 changed between attempts:\n got %s\nwant %s", body, data, first)
			}
		}
	}
	s.memoMu.RLock()
	after := len(s.memo)
	s.memoMu.RUnlock()
	if after != size || mResolutions.Load() != fills {
		t.Fatalf("bad requests reached the memo: %d -> %d entries, %d fills", size, after, mResolutions.Load()-fills)
	}
}

// An in-process warm hit on a holds entry allocates a handful of times: the
// memo key, the request's own deadline wiring and the response, not an
// automaton, a query compilation or a canonical rendering.
func TestWarmHitAllocs(t *testing.T) {
	s := New(Config{Cache: memCache(t)})
	req := VerifyRequest{Model: "simplified", Prop: "Inv1_0"}
	ctx := context.Background()
	if _, _, err := s.verify(ctx, &req); err != nil {
		t.Fatal(err)
	}
	runs := s.EngineRuns()
	got := testing.AllocsPerRun(200, func() {
		resp, _, err := s.verify(ctx, &req)
		if err != nil || !resp.Results[0].Cached {
			t.Fatalf("warm verify: %v (%+v)", err, resp)
		}
	})
	if s.EngineRuns() != runs {
		t.Fatal("warm hits ran the engine")
	}
	const limit = 16
	if got > limit {
		t.Fatalf("a warm hit allocated %v times, want at most %d", got, limit)
	}
	t.Logf("%v allocations per warm hit", got)
}

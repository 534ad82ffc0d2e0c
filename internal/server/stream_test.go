package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fastflip/internal/core"
	"fastflip/internal/ostore"
	"fastflip/internal/service"
	"fastflip/internal/spec"
)

// buildWithSlow serves "pipe" (both variants) plus the slow spin-loop
// fixture, for tests that need a job to still be running when they act.
func buildWithSlow(name, variant string) (*spec.Program, error) {
	if name == "slow" {
		return slowSpinProg(), nil
	}
	return testBuild(name, variant)
}

// TestSubmitStatusClasses pins the submit-failure taxonomy at the HTTP
// edge, one subtest per class: client mistakes are 400, infrastructure
// failures 500, tenant quota 429 (with a Retry-After hint). The 503
// queue-full class is covered by TestReadyzAndSubmitOnSaturatedQueue.
func TestSubmitStatusClasses(t *testing.T) {
	t.Run("400 invalid request", func(t *testing.T) {
		ts, _ := newTestServer(t, service.Options{})
		for _, body := range []string{
			`{"bench":"nope"}`,                  // unknown benchmark
			`{"bench":"pipe","variant":"huge"}`, // unknown variant
		} {
			resp := doRaw(t, http.MethodPost, ts.URL+"/v1/jobs", []byte(body))
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("submit %s = %d, want 400", body, resp.StatusCode)
			}
		}
	})
	t.Run("500 infrastructure", func(t *testing.T) {
		// A WAL "directory" that is a plain file: the operator's problem,
		// and it must not masquerade as the client's.
		blocked := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		ts, _ := newTestServer(t, service.Options{WALDir: blocked})
		resp := doRaw(t, http.MethodPost, ts.URL+"/v1/jobs", []byte(`{"bench":"pipe","variant":"none"}`))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("submit with broken WAL dir = %d, want 500", resp.StatusCode)
		}
	})
	t.Run("429 tenant quota", func(t *testing.T) {
		ts, _ := newTestServer(t, service.Options{
			Build:           buildWithSlow,
			ListBenchmarks:  func() []string { return []string{"pipe", "slow"} },
			MaxTenantActive: 1,
		})
		var v service.JobView
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
			service.Request{Bench: "slow", Tenant: "greedy"}, &v); code != http.StatusAccepted {
			t.Fatalf("first submit = %d", code)
		}
		resp := doRaw(t, http.MethodPost, ts.URL+"/v1/jobs", []byte(`{"bench":"pipe","variant":"none","tenant":"greedy"}`))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("over-quota submit = %d, want 429", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After hint")
		}
		// Another tenant is unaffected.
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
			service.Request{Bench: "pipe", Variant: "none", Tenant: "modest"}, nil); code != http.StatusAccepted {
			t.Errorf("other tenant's submit = %d, want 202", code)
		}
		doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil, nil)
	})
}

func TestBatchSubmit(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})

	var out struct {
		Jobs     []batchItem `json:"jobs"`
		Accepted int         `json:"accepted"`
	}
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs/batch",
		`{"jobs":[{"bench":"pipe","variant":"none"},{"bench":"pipe","variant":"modified"},{"bench":"nope"}]}`, &out)
	if code != http.StatusAccepted {
		t.Fatalf("batch status %d, want 202", code)
	}
	if out.Accepted != 2 || len(out.Jobs) != 3 {
		t.Fatalf("accepted %d of %d items, want 2 of 3", out.Accepted, len(out.Jobs))
	}
	for i := 0; i < 2; i++ {
		if out.Jobs[i].Job == nil || out.Jobs[i].Job.ID == "" {
			t.Fatalf("item %d carries no job: %+v", i, out.Jobs[i])
		}
	}
	if bad := out.Jobs[2]; bad.Job != nil || bad.Status != http.StatusBadRequest || bad.Error == "" {
		t.Errorf("rejected item = %+v, want status 400 with error", bad)
	}
	for i := 0; i < 2; i++ {
		if got := pollTerminal(t, ts.URL, out.Jobs[i].Job.ID); got.State != service.StateDone {
			t.Errorf("batch job %d state %s (err %q)", i, got.State, got.Error)
		}
	}

	// A batch with nothing acceptable is a 400, as is an empty one.
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs/batch", `{"jobs":[{"bench":"nope"}]}`, nil); code != http.StatusBadRequest {
		t.Errorf("all-rejected batch status %d, want 400", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs/batch", `{"jobs":[]}`, nil); code != http.StatusBadRequest {
		t.Errorf("empty batch status %d, want 400", code)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	event string
	view  service.JobView
}

// readSSE consumes an event stream until it ends, returning the events.
func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.view); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
				cur = sseEvent{}
			}
		}
	}
	return events
}

// TestSSEStream subscribes to a job's event stream and requires it to
// carry the lifecycle through to the terminal snapshot, then end.
func TestSSEStream(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	var v service.JobView
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		service.Request{Bench: "pipe", Variant: "none"}, &v); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	events := readSSE(t, resp)
	if len(events) == 0 {
		t.Fatal("stream carried no events")
	}
	last := events[len(events)-1]
	if last.event != string(service.StateDone) || last.view.State != service.StateDone {
		t.Fatalf("last event %q (state %s), want done", last.event, last.view.State)
	}
	if last.view.Result == nil || last.view.Result.Instances != 2 {
		t.Errorf("terminal event result = %+v", last.view.Result)
	}
	for _, e := range events {
		if e.event != string(e.view.State) {
			t.Errorf("event name %q disagrees with payload state %s", e.event, e.view.State)
		}
	}

	// Streaming an unknown job is a 404, not an empty stream.
	resp2, err := http.Get(ts.URL + "/v1/jobs/job-404/events")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("events for unknown job = %d, want 404", resp2.StatusCode)
	}
}

// TestSSEDisconnectCounted hangs up mid-stream and requires the server to
// count the disconnect in /metrics instead of logging it as an error.
func TestSSEDisconnectCounted(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{
		Build:          buildWithSlow,
		ListBenchmarks: func() []string { return []string{"pipe", "slow"} },
	})
	var v service.JobView
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		service.Request{Bench: "slow"}, &v); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+v.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first event so the stream is established, then hang up.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		var mt service.Metrics
		doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &mt)
		if mt.ClientDisconnects >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client_disconnects never moved after mid-stream hangup")
		}
		time.Sleep(5 * time.Millisecond)
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil, nil)
	pollTerminal(t, ts.URL, v.ID)
}

// TestLongPollWait covers the ?wait= fallback for clients that cannot
// consume SSE: a generous window returns the terminal snapshot in one
// round trip; an elapsed window degrades to the current snapshot.
func TestLongPollWait(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{
		Build:          buildWithSlow,
		ListBenchmarks: func() []string { return []string{"pipe", "slow"} },
	})
	var v service.JobView
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", service.Request{Bench: "pipe", Variant: "none"}, &v)
	var got service.JobView
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+v.ID+"?wait=60s", nil, &got); code != http.StatusOK {
		t.Fatalf("long poll status %d", code)
	}
	if got.State != service.StateDone {
		t.Fatalf("long poll returned non-terminal state %s", got.State)
	}

	var slow service.JobView
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", service.Request{Bench: "slow"}, &slow)
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+slow.ID+"?wait=30ms", nil, &got); code != http.StatusOK {
		t.Fatalf("elapsed-window poll status %d", code)
	}
	if got.State.Terminal() {
		t.Fatalf("slow job already terminal (%s); the elapsed-window path was not exercised", got.State)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+slow.ID+"?wait=bogus", nil, nil); code != http.StatusBadRequest {
		t.Errorf("bad wait duration status %d, want 400", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-404?wait=1s", nil, nil); code != http.StatusNotFound {
		t.Errorf("long poll on unknown job status %d, want 404", code)
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+slow.ID, nil, nil)
	pollTerminal(t, ts.URL, slow.ID)
}

// TestSharedTierEndToEnd is the acceptance scenario for the shared
// outcome tier: a real fft-small analysis on one server, then the same
// submission against a *second* server process sharing only the store
// directory. The second run must re-simulate nothing — every section a
// shared hit — and report the same analytical summary byte for byte.
// Uses the real benchmark registry, so it is skipped in -short runs.
func TestSharedTierEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real fft analysis in -short mode")
	}
	dir := t.TempDir()
	run := func(tenant string) *service.JobView {
		shared, err := ostore.Open(ostore.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		mgr := service.New(service.Options{Workers: 1, Shared: shared})
		ts := httptest.NewServer(New(mgr, nil))
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			mgr.Close(ctx)
			shared.Close()
		}()
		var v service.JobView
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
			service.Request{Bench: "fft", Variant: "small", Tenant: tenant}, &v)
		if code != http.StatusAccepted {
			t.Fatalf("submit status %d", code)
		}
		got := pollTerminal(t, ts.URL, v.ID)
		if got.State != service.StateDone {
			t.Fatalf("fft job on %s: %s (err %q)", tenant, got.State, got.Error)
		}
		var mt service.Metrics
		doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &mt)
		if mt.SharedSections == 0 {
			t.Errorf("shared_sections still zero after a completed job on %s", tenant)
		}
		return &got
	}

	first := run("ci-a")
	r1 := first.Result
	if r1.SharedHits != 0 || r1.SharedMisses != r1.Instances || r1.Injected != r1.Instances {
		t.Fatalf("cold run: hits=%d misses=%d injected=%d instances=%d",
			r1.SharedHits, r1.SharedMisses, r1.Injected, r1.Instances)
	}

	second := run("ci-b")
	r2 := second.Result
	if r2.Injected != 0 {
		t.Errorf("warm run re-simulated %d instances, want 0", r2.Injected)
	}
	if r2.SharedHits != r2.Instances || r2.Reused != r2.Instances {
		t.Errorf("warm run: shared_hits=%d reused=%d, want both %d", r2.SharedHits, r2.Reused, r2.Instances)
	}
	if a, b := neutralJSON(t, r1), neutralJSON(t, r2); a != b {
		t.Errorf("summaries diverge across the shared tier:\n A %s\n B %s", a, b)
	}
}

// neutralJSON renders a summary with the work/provenance fields zeroed —
// the fields that legitimately differ between a fresh campaign and one
// served from the shared tier — so the analytical remainder can be
// compared byte for byte.
func neutralJSON(t *testing.T, s *core.Summary) string {
	t.Helper()
	c := *s
	c.Reused, c.Injected = 0, 0
	c.SharedHits, c.SharedMisses = 0, 0
	c.FFExperiments, c.FFSimInstrs, c.FFWall = 0, 0, 0
	c.FFCleanInstrs, c.FFFaultyInstrs = 0, 0
	c.ElidedExperiments, c.ElidedSimInstrs = 0, 0
	c.ResumedExperiments = 0
	c.WALNotes = nil
	raw, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

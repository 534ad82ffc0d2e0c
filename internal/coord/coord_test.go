package coord

import (
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"fastflip/internal/core"
	"fastflip/internal/inject"
	"fastflip/internal/spec"
	"fastflip/internal/testprog"
)

// pipelineBuild serves the two-section testprog pipeline under any name,
// so coordinator and workers agree on the program without the benchmark
// registry.
func pipelineBuild(string, string) (*spec.Program, error) {
	return testprog.Pipeline(), nil
}

// startWorker serves one in-process shard worker over a real listener.
func startWorker(t *testing.T, id string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewWorker(WorkerOptions{ID: id, Build: pipelineBuild, Workers: 1}))
	t.Cleanup(srv.Close)
	return srv
}

// neutralize zeroes the summary fields that legitimately differ between a
// distributed and a local run: wall time, the engine-work split, resume
// and distribution bookkeeping. Outcome counts and accounted costs must
// survive untouched — they are what "byte-identical" means.
func neutralize(s *core.Summary) {
	s.FFWall = 0
	s.FFCleanInstrs, s.FFFaultyInstrs = 0, 0
	s.ResumedExperiments = 0
	s.WALNotes = nil
	s.RemoteExperiments = 0
	s.ShardsMerged = 0
	s.HedgedDispatches = 0
	s.Releases = 0
	if s.Baseline != nil {
		s.Baseline.Wall = 0
		s.Baseline.CleanInstrs, s.Baseline.FaultyInstrs = 0, 0
	}
}

// runLocal is the reference: the same analysis with no fleet.
func runLocal(t *testing.T, cfg core.Config) *core.Summary {
	t.Helper()
	r, err := core.NewAnalyzer(cfg).Analyze(testprog.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	s := r.Summarize(cfg.Epsilon, nil)
	neutralize(s)
	return s
}

func runDistributed(t *testing.T, cfg core.Config, c *Coordinator) (*core.Summary, *core.Result) {
	t.Helper()
	cfg.SectionInjector = c.SectionInjector("pipe", "none")
	r, err := core.NewAnalyzer(cfg).Analyze(testprog.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	s := r.Summarize(cfg.Epsilon, nil)
	neutralize(s)
	return s, r
}

// TestDistributedMatchesLocal: a clean two-worker fleet produces a
// summary byte-identical to the single-process run, with every experiment
// executed remotely.
func TestDistributedMatchesLocal(t *testing.T) {
	for _, coRun := range []bool{false, true} {
		t.Run(fmt.Sprintf("coRun=%v", coRun), func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Workers = 1
			cfg.CoRunBaseline = coRun
			want := runLocal(t, cfg)

			c := NewCoordinator(Options{Heartbeat: -1, Logf: t.Logf})
			defer c.Close()
			for i, srv := range []*httptest.Server{startWorker(t, "w1"), startWorker(t, "w2")} {
				id, err := c.AddWorker(srv.URL)
				if err != nil {
					t.Fatal(err)
				}
				if want := fmt.Sprintf("w%d", i+1); id != want {
					t.Fatalf("worker id %q, want %q", id, want)
				}
			}

			got, r := runDistributed(t, cfg, c)
			if r.RemoteExperiments == 0 || r.ShardsMerged == 0 {
				t.Fatalf("nothing ran remotely: remote=%d shards=%d", r.RemoteExperiments, r.ShardsMerged)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("distributed summary differs from local:\nlocal: %+v\ndist:  %+v", want, got)
			}
			met := c.Metrics()
			if met.ShardsCompleted == 0 || met.RecordsStreamed == 0 || met.ShardNanos == 0 {
				t.Errorf("shard metrics empty: %+v", met)
			}
			if met.LocalFallbackExperiments != 0 {
				t.Errorf("clean fleet fell back locally: %+v", met)
			}
			if met.RemoteExperiments != uint64(r.RemoteExperiments) {
				t.Errorf("metrics/result disagree on remote experiments: %d vs %d", met.RemoteExperiments, r.RemoteExperiments)
			}
		})
	}
}

// TestDistributedChaosConverges: dropped leases, streams cut mid-shard,
// and duplicate delivery on every retry — the campaign must still
// converge to the exact local summary with nothing double-counted.
func TestDistributedChaosConverges(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	want := runLocal(t, cfg)

	var mu sync.Mutex
	cut := map[string]bool{}
	plan := func(a ShardAttempt) ShardFault {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case a.Round == 0 && !cut["drop"]:
			// First lease of the campaign vanishes entirely.
			cut["drop"] = true
			return ShardFault{Drop: true}
		case a.Round == 0:
			// The other first-round stream is cut after one record.
			return ShardFault{TruncateAfterRecords: 1}
		default:
			// Every retry is delivered twice: the dedupe must hold.
			return ShardFault{Duplicate: true}
		}
	}

	c := NewCoordinator(Options{Heartbeat: -1, Fault: plan, Logf: t.Logf})
	defer c.Close()
	for _, srv := range []*httptest.Server{startWorker(t, "w1"), startWorker(t, "w2")} {
		if _, err := c.AddWorker(srv.URL); err != nil {
			t.Fatal(err)
		}
	}

	got, _ := runDistributed(t, cfg, c)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("chaos summary differs from local:\nlocal: %+v\ndist:  %+v", want, got)
	}
	met := c.Metrics()
	if met.Reassignments == 0 {
		t.Errorf("dropped and cut leases produced no reassignments: %+v", met)
	}
	if met.DuplicateRecords == 0 {
		t.Errorf("duplicated streams produced no counted duplicates: %+v", met)
	}
}

// TestNoWorkersFallsBackLocal: a coordinator with an empty fleet is just
// a slow way to spell a local run.
func TestNoWorkersFallsBackLocal(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	want := runLocal(t, cfg)

	c := NewCoordinator(Options{Heartbeat: -1, Logf: t.Logf})
	defer c.Close()
	got, r := runDistributed(t, cfg, c)
	if r.RemoteExperiments != 0 || r.ShardsMerged != 0 {
		t.Fatalf("empty fleet ran remote work: %+v", r)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("fallback summary differs from local:\nlocal: %+v\ndist:  %+v", want, got)
	}
	if met := c.Metrics(); met.LocalFallbackExperiments == 0 {
		t.Errorf("fallback ran but was not counted: %+v", met)
	}
}

// TestWrongProgramWorkerRejected: a worker serving a different program
// computes a different campaign fingerprint, refuses every lease with a
// 409, and the campaign converges through the local fallback — a stale
// fleet can slow an analysis down but never corrupt it.
func TestWrongProgramWorkerRejected(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	want := runLocal(t, cfg)

	wrong := httptest.NewServer(NewWorker(WorkerOptions{ID: "stale", Workers: 1,
		Build: func(string, string) (*spec.Program, error) { return testprog.PipelineModified(), nil }}))
	defer wrong.Close()

	c := NewCoordinator(Options{Heartbeat: -1, MaxRounds: 2, Logf: t.Logf})
	defer c.Close()
	if _, err := c.AddWorker(wrong.URL); err != nil {
		t.Fatal(err)
	}

	got, r := runDistributed(t, cfg, c)
	if r.RemoteExperiments != 0 {
		t.Fatalf("stale worker's results were merged: %+v", r)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("summary with stale fleet differs from local:\nlocal: %+v\ndist:  %+v", want, got)
	}
	met := c.Metrics()
	if met.ShardsFailed == 0 {
		t.Errorf("rejected leases not counted as failed: %+v", met)
	}
	// Rejection is not unhealthiness: the worker must still be live.
	if ws := c.Workers(); len(ws) != 1 || !ws[0].Live {
		t.Errorf("rejected worker fell out of rotation: %+v", ws)
	}
}

// TestDistributedWALShardProvenance: a WAL-backed distributed campaign
// records which worker and lease delivered each merged shard, and the
// segments carry it for fasm -wal-info.
func TestDistributedWALShardProvenance(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	cfg.WALDir = dir

	c := NewCoordinator(Options{Heartbeat: -1, Logf: t.Logf})
	defer c.Close()
	if _, err := c.AddWorker(startWorker(t, "w1").URL); err != nil {
		t.Fatal(err)
	}
	_, r := runDistributed(t, cfg, c)
	if r.ShardsMerged == 0 {
		t.Fatal("no shards merged")
	}

	segs, err := filepath.Glob(filepath.Join(dir, "*", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments (err=%v)", err)
	}
	shards := 0
	for _, seg := range segs {
		info, err := inject.InspectSegment(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range info.Shards {
			shards++
			if s.Worker != "w1" || s.Epoch == 0 || s.Records == 0 || s.Hi <= s.Lo {
				t.Errorf("segment %s: implausible shard provenance %+v", seg, s)
			}
		}
	}
	if shards != r.ShardsMerged {
		t.Errorf("segments hold %d shard records, result says %d", shards, r.ShardsMerged)
	}
}

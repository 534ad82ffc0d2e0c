package coord

import (
	"context"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"

	"fastflip/internal/bench"
	"fastflip/internal/core"
	"fastflip/internal/inject"
	"fastflip/internal/maskelide"
	"fastflip/internal/metrics"
	"fastflip/internal/sites"
	"fastflip/internal/spec"
	"fastflip/internal/store"
	"fastflip/internal/trace"
)

// BuildFunc constructs the program for one benchmark version (the same
// shape as the service's builder; redeclared here so coord does not
// depend on service).
type BuildFunc func(benchName, variant string) (*spec.Program, error)

// WorkerOptions configure a shard worker.
type WorkerOptions struct {
	// ID is the worker's self-reported identity, echoed on health probes
	// and shard streams and recorded in merged segments' provenance.
	// Default "worker-<pid>".
	ID string
	// Build constructs programs (default bench.Build).
	Build BuildFunc
	// Workers bounds the worker's injection parallelism (0 = GOMAXPROCS).
	Workers int
	// Token, when non-empty, is the shared secret the worker demands as a
	// bearer token on shard leases: a request without `Authorization:
	// Bearer <token>` is refused with 401. The health endpoint stays open
	// so liveness probes work regardless of credential state.
	Token string
}

// Worker executes leased shards of remote injection campaigns: it serves
// POST /v1/shard (run a range, stream framed WAL records back) and
// GET /healthz (liveness, reporting the worker ID). Both ffserved's
// -worker mode and in-test workers are this handler behind a listener.
//
// A worker holds no campaign state between shards beyond a trace cache:
// every lease names its benchmark, instance, and range, and the worker's
// determinism guarantee — same benchmark build, same recorded trace, same
// class enumeration — is checked per shard through the section key and
// campaign fingerprint rather than assumed.
type Worker struct {
	opts WorkerOptions
	mux  *http.ServeMux

	mu     sync.Mutex
	traces map[traceKey]*trace.Trace
}

type traceKey struct {
	bench, variant     string
	checkpointInterval int64
}

// NewWorker returns a worker handler.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.ID == "" {
		opts.ID = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if opts.Build == nil {
		opts.Build = func(name, variant string) (*spec.Program, error) {
			return bench.Build(name, bench.Variant(variant))
		}
	}
	w := &Worker{opts: opts, mux: http.NewServeMux(), traces: make(map[traceKey]*trace.Trace)}
	w.mux.HandleFunc("POST "+shardPath, w.shard)
	w.mux.HandleFunc("GET "+healthPath, w.healthz)
	return w
}

// ID returns the worker's identity.
func (w *Worker) ID() string { return w.opts.ID }

// ServeHTTP implements http.Handler.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	w.mux.ServeHTTP(rw, r)
}

func (w *Worker) healthz(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(map[string]string{"status": "ok", "worker": w.opts.ID})
}

// traceFor records (or reuses) the trace of one benchmark version. The
// cache is keyed by checkpoint interval too: different intervals change
// replay granularity, and a lease must run against exactly the trace
// shape its fingerprint was computed over.
func (w *Worker) traceFor(benchName, variant string, interval int64) (*trace.Trace, error) {
	key := traceKey{benchName, variant, interval}
	w.mu.Lock()
	t := w.traces[key]
	w.mu.Unlock()
	if t != nil {
		return t, nil
	}
	p, err := w.opts.Build(benchName, variant)
	if err != nil {
		return nil, err
	}
	t, err = trace.RecordWith(p, trace.Options{CheckpointInterval: interval})
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.traces[key] = t
	w.mu.Unlock()
	return t, nil
}

// maxShardBody bounds a lease request; the Done list dominates and stays
// far below this for any realistic section.
const maxShardBody = 8 << 20

// shard runs one leased range and streams the results back. Validation
// failures answer with JSON errors (400 malformed/unbuildable, 409 stale
// or wrong-config); past the header the response is a framed record
// stream terminated by a seal, and any failure mid-stream simply ends the
// stream unsealed — the coordinator treats it as partial, exactly like a
// torn WAL tail.
func (w *Worker) shard(rw http.ResponseWriter, r *http.Request) {
	if w.opts.Token != "" {
		got := r.Header.Get("Authorization")
		want := "Bearer " + w.opts.Token
		if subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
			httpError(rw, http.StatusUnauthorized, fmt.Errorf("missing or invalid worker token"))
			return
		}
	}
	var req ShardRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxShardBody)).Decode(&req); err != nil {
		httpError(rw, http.StatusBadRequest, fmt.Errorf("decoding shard request: %w", err))
		return
	}
	t, err := w.traceFor(req.Bench, req.Variant, req.Config.CheckpointInterval)
	if err != nil {
		httpError(rw, http.StatusBadRequest, err)
		return
	}
	if req.Instance < 0 || req.Instance >= len(t.Instances) {
		httpError(rw, http.StatusBadRequest, fmt.Errorf("instance %d out of range (%d instances)", req.Instance, len(t.Instances)))
		return
	}
	inst := t.Instances[req.Instance]

	cfg := req.Config.analysisConfig(w.opts.Workers)
	if fp := core.CampaignFingerprint(t.Fingerprint(), cfg); fp != req.Fingerprint {
		httpError(rw, http.StatusConflict, fmt.Errorf("campaign fingerprint mismatch: lease has %016x, worker computes %016x (stale or wrong-config shard)", req.Fingerprint, fp))
		return
	}
	var key store.Key
	var keyErr error
	if cfg.StrictReuseKeys {
		key, keyErr = store.KeyForStrict(t, inst)
	} else {
		key, keyErr = store.KeyFor(t, inst)
	}
	if keyErr != nil {
		httpError(rw, http.StatusBadRequest, fmt.Errorf("computing section key: %w", keyErr))
		return
	}
	if got := hex.EncodeToString(key[:]); got != req.SectionKey {
		httpError(rw, http.StatusConflict, fmt.Errorf("section key mismatch: lease names %s, worker computes %s", req.SectionKey, got))
		return
	}

	// The site options must reproduce the coordinator's class enumeration
	// exactly, elision flags included: an elided class streams back with
	// elision cost accounting, and a mismatch there would make the merged
	// summary differ from a local run.
	siteOpts := sites.Options{Prune: cfg.Prune, Width: cfg.BurstWidth}
	if cfg.Elide {
		siteOpts.Masks = maskelide.Analyze(t.Prog.Linked)
	}
	classes := sites.ForInstance(t, inst, siteOpts)
	skip := make([]bool, len(classes))
	for _, ci := range req.Done {
		if ci >= 0 && ci < len(skip) {
			skip[ci] = true
		}
	}

	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set(workerHeader, w.opts.ID)
	rw.Header().Set(epochHeader, fmt.Sprintf("%d", req.Epoch))
	rw.WriteHeader(http.StatusOK)

	// Record/Poison are called concurrently by injection workers; the
	// stream is serialized under streamMu. A write failure (coordinator
	// went away) latches and cancels the campaign — there is nobody left
	// to stream to.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	sw := inject.NewStreamWriter(rw)
	var streamMu sync.Mutex
	var streamErr error
	count := 0
	hooks := inject.CampaignHooks{
		Skip:  skip,
		Range: &inject.ShardRange{Lo: req.Lo, Hi: req.Hi},
		Record: func(i int, out metrics.Outcome, fin *metrics.Outcome, cost inject.Stats) {
			streamMu.Lock()
			defer streamMu.Unlock()
			if streamErr != nil {
				return
			}
			if err := sw.WriteExperiment(inject.WALRecord{Key: classes[i].Key, Out: out, Fin: fin, Cost: cost}); err != nil {
				streamErr = err
				cancel()
				return
			}
			count++
		},
		Poison: func(p inject.Poison) {
			streamMu.Lock()
			defer streamMu.Unlock()
			if streamErr != nil {
				return
			}
			if err := sw.WritePoison(inject.WALPoison{Key: p.Key, Attempts: p.Attempts, MachineFP: p.MachineFP, Stack: p.Stack}); err != nil {
				streamErr = err
				cancel()
			}
		},
	}

	inj := &inject.Injector{T: t, Workers: cfg.Workers, Legacy: cfg.LegacyReplay}
	if cfg.CoRunBaseline {
		_, _, _ = inj.RunSectionCoRunResume(ctx, inst, classes, hooks)
	} else {
		_, _ = inj.RunSectionResume(ctx, inst, classes, hooks)
	}

	streamMu.Lock()
	defer streamMu.Unlock()
	if ctx.Err() == nil && streamErr == nil {
		// A complete shard is sealed with its record count; a cancelled or
		// broken one ends unsealed and the coordinator re-leases the rest.
		_ = sw.WriteSeal(count)
	}
}

func httpError(rw http.ResponseWriter, status int, err error) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(map[string]string{"error": err.Error()})
}

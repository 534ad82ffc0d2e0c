// Package coord distributes injection campaigns across machines. A
// Coordinator plugs into the analysis pipeline through core.Config's
// SectionInjector seam: for every section it leases contiguous ranges of
// the canonical dyn-sorted experiment order to remote Workers over HTTP,
// merges the framed WAL records streamed back as they arrive, and falls
// back to an in-process engine for anything the fleet could not deliver —
// so a distributed campaign always converges to the exact result of a
// local one.
//
// Scheduling is completion-driven, not round-driven: pending positions
// form a work queue, each usable worker pulls a lease sized by its health
// score the moment it goes idle, every dispatch carries a deadline budget
// derived from observed shard throughput (capped by Options.ShardTimeout),
// and a dispatch that outlives the adaptive straggler threshold (p95 of
// recent shard durations, floored by Options.StragglerFloor) has its
// unresolved remainder hedged to an idle worker while the original keeps
// streaming — first delivery wins. A stalled worker therefore delays only
// its own lease, never the section.
//
// The robustness model composes existing mechanisms rather than
// inventing new ones:
//
//   - Identity: every lease carries the campaign fingerprint (trace ⊕
//     config) and the section content key; a worker recomputes both from
//     its own build and refuses a mismatch, the same gate WAL resume
//     applies to on-disk segments.
//   - Loss: a worker that dies mid-range leaves a partial stream (framed
//     records, no seal). The records already merged stay merged, and the
//     remainder returns to the work queue for immediate re-lease via the
//     skip-vector resume path (the lease's Done list).
//   - Duplication: shard ranges may overlap, streams may be delivered
//     twice, and a hedge races its straggling original; the merger
//     deduplicates by experiment identity (equivalence class key), first
//     delivery wins, so nothing is double-counted.
//   - Failure: each worker sits behind a circuit breaker — consecutive
//     failures open it with capped jittered backoff, a half-open probe
//     (dispatch or heartbeat) re-admits it — and its health score shrinks
//     the ranges a slow-but-alive worker is handed instead of dropping it.
//
// Leases carry monotonically increasing epochs, recorded as WAL shard
// provenance so `fasm -wal-info` can attribute a merged segment's records
// to the fleet that produced them.
package coord

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fastflip/internal/core"
	"fastflip/internal/inject"
	"fastflip/internal/metrics"
	"fastflip/internal/trace"
)

// Options configure a Coordinator. The zero value gets sensible defaults.
type Options struct {
	// Client performs shard and health requests (default: a client with
	// no overall timeout — shard streams are long-lived; every dispatch
	// is instead bounded by its own deadline budget, see ShardTimeout).
	Client *http.Client
	// Heartbeat is the worker liveness probe interval (default 5s;
	// negative disables probing — breakers then open and close only on
	// dispatch outcomes).
	Heartbeat time.Duration
	// HeartbeatMisses is how many consecutive failed probes count as one
	// breaker failure for a closed worker (default 2). For an open worker
	// whose backoff elapsed, the heartbeat doubles as the half-open probe:
	// one answered probe closes the breaker again.
	HeartbeatMisses int
	// ProbeTimeout bounds each health probe (default 3s).
	ProbeTimeout time.Duration
	// ShardTimeout caps one dispatch's deadline budget (default 2m). The
	// effective budget is derived from observed shard throughput and the
	// lease size, clamped to this — so a hung worker can never hold a
	// lease longer than ShardTimeout, and usually far shorter.
	ShardTimeout time.Duration
	// StragglerFloor is the minimum straggler threshold (default 250ms):
	// a dispatch is hedge-eligible once it has been in flight longer than
	// max(StragglerFloor, 2×p95 of recently completed shard durations).
	StragglerFloor time.Duration
	// MaxRounds bounds lease attempts per experiment position (hedges
	// included) before the coordinator stops re-leasing it and leaves it
	// to the local fallback (default 5).
	MaxRounds int
	// BreakerThreshold is how many consecutive dispatch failures open a
	// worker's circuit (default 3).
	BreakerThreshold int
	// BreakerBackoff is the first open interval (default 1s); consecutive
	// opens double it, capped at BreakerMaxBackoff (default 30s), with
	// ±25% jitter.
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	// WorkerToken, when non-empty, is sent as a bearer token on every
	// shard dispatch and health probe; workers started with a token
	// refuse mismatched leases with 401.
	WorkerToken string
	// Fault, when non-nil, injects network faults into dispatch attempts
	// (chaos tests only).
	Fault FaultPlan
	// Logf, when non-nil, receives coordinator diagnostics.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.Heartbeat == 0 {
		o.Heartbeat = 5 * time.Second
	}
	if o.HeartbeatMisses <= 0 {
		o.HeartbeatMisses = 2
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 3 * time.Second
	}
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 2 * time.Minute
	}
	if o.StragglerFloor <= 0 {
		o.StragglerFloor = 250 * time.Millisecond
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 5
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerBackoff <= 0 {
		o.BreakerBackoff = time.Second
	}
	if o.BreakerMaxBackoff <= 0 {
		o.BreakerMaxBackoff = 30 * time.Second
	}
	return o
}

// WorkerView is a snapshot of one registered worker.
type WorkerView struct {
	URL string `json:"url"`
	ID  string `json:"id"`
	// Live is false while the worker's circuit is open.
	Live bool `json:"live"`
	// State is the circuit position: "closed", "open", or "half-open".
	State string `json:"state"`
	// Health is the worker's dispatch-success EWMA in [0,1]; it weights
	// how large a range the scheduler leases to the worker.
	Health float64 `json:"health"`
}

type remoteWorker struct {
	url string
	id  string
	br  *breaker
	// probeFails counts consecutive failed heartbeat probes of a closed
	// worker; HeartbeatMisses of them feed one breaker failure.
	probeFails int
	// perRecNanos is an EWMA of observed nanoseconds per streamed record,
	// the worker's throughput signal for health-weighted partition sizing.
	perRecNanos float64
}

// throughputAlpha is the EWMA weight of the newest throughput sample.
const throughputAlpha = 0.3

// leaseBudgetSlack multiplies the throughput-estimated shard duration to
// form the dispatch deadline budget.
const leaseBudgetSlack = 8

// hedgeSlack multiplies the p95 shard duration to form the adaptive
// straggler threshold.
const hedgeSlack = 2

// durWindow is the sliding window of completed shard durations behind
// the straggler percentiles.
const durWindow = 64

// Coordinator owns the worker registry and runs distributed section
// campaigns. Safe for concurrent use by multiple jobs.
type Coordinator struct {
	opts  Options
	epoch atomic.Uint64

	mu      sync.Mutex
	workers []*remoteWorker
	met     Metrics
	rng     *rand.Rand
	// durs is a ring of the most recent completed shard durations.
	durs   []int64
	durIdx int
	perRec float64 // fleet-wide ns-per-record EWMA, drives lease budgets

	stopOnce sync.Once
	stop     chan struct{}
	hbDone   chan struct{}
}

// NewCoordinator returns a coordinator and starts its heartbeat loop.
func NewCoordinator(opts Options) *Coordinator {
	c := &Coordinator{
		opts:   opts.withDefaults(),
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
		stop:   make(chan struct{}),
		hbDone: make(chan struct{}),
	}
	if c.opts.Heartbeat > 0 {
		go c.heartbeatLoop()
	} else {
		close(c.hbDone)
	}
	return c
}

// Close stops the heartbeat loop. Idempotent.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.hbDone
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// newBreakerLocked builds a worker breaker wired to the coordinator's
// jitter source; c.mu must be held (as for every breaker method).
func (c *Coordinator) newBreakerLocked() *breaker {
	return newBreaker(c.opts.BreakerThreshold, c.opts.BreakerBackoff, c.opts.BreakerMaxBackoff,
		nil, func() float64 { return c.rng.Float64() })
}

// AddWorker probes url's health endpoint and registers the worker,
// returning its self-reported ID. Re-adding a known URL resets its
// breaker closed.
func (c *Coordinator) AddWorker(url string) (string, error) {
	id, err := c.probe(url)
	if err != nil {
		return "", fmt.Errorf("coord: worker %s: %w", url, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w.url == url {
			w.id, w.probeFails = id, 0
			w.br = c.newBreakerLocked()
			return id, nil
		}
	}
	c.workers = append(c.workers, &remoteWorker{url: url, id: id, br: c.newBreakerLocked()})
	return id, nil
}

// Workers snapshots the registry.
func (c *Coordinator) Workers() []WorkerView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerView, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerView{
			URL:    w.url,
			ID:     w.id,
			Live:   w.br.state != breakerOpen,
			State:  w.br.state.String(),
			Health: w.br.health,
		})
	}
	return out
}

// Metrics snapshots the coordinator's counters and gauges.
func (c *Coordinator) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.met
	m.WorkersRegistered = len(c.workers)
	for _, w := range c.workers {
		if w.br.state != breakerOpen {
			m.WorkersLive++
		}
	}
	m.ShardP50Nanos = c.shardPercentileLocked(0.50)
	m.ShardP95Nanos = c.shardPercentileLocked(0.95)
	return m
}

// pushDurLocked records one completed shard duration in the sliding
// window; c.mu must be held.
func (c *Coordinator) pushDurLocked(d time.Duration) {
	if len(c.durs) < durWindow {
		c.durs = append(c.durs, int64(d))
		return
	}
	c.durs[c.durIdx] = int64(d)
	c.durIdx = (c.durIdx + 1) % durWindow
}

// shardPercentileLocked computes the q-th percentile (nearest-rank) of
// the duration window; c.mu must be held. Zero with no samples.
func (c *Coordinator) shardPercentileLocked(q float64) int64 {
	if len(c.durs) == 0 {
		return 0
	}
	vals := append([]int64(nil), c.durs...)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	idx := int(math.Ceil(q*float64(len(vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	return vals[idx]
}

// stragglerThreshold is the in-flight age past which a dispatch is
// hedge-eligible: hedgeSlack × p95 of recent shard durations, floored.
func (c *Coordinator) stragglerThreshold() time.Duration {
	c.mu.Lock()
	p95 := c.shardPercentileLocked(0.95)
	c.mu.Unlock()
	thr := time.Duration(hedgeSlack * p95)
	if thr < c.opts.StragglerFloor {
		thr = c.opts.StragglerFloor
	}
	return thr
}

// leaseBudget derives one dispatch's deadline budget from the fleet's
// observed per-record throughput and the lease size, clamped to
// ShardTimeout. With no throughput history the full ShardTimeout
// applies — generous, but still a hard bound a hung worker cannot evade.
//
// Per-record cost varies across sections (the EWMA mixes cheap and heavy
// ones), so the estimate is floored at leaseBudgetSlack × the p95 of
// whole-shard durations: a shard no slower than recent completions must
// never trip its deadline on a healthy fleet — stragglers are hedging's
// job, the budget exists only to unstick hung workers.
func (c *Coordinator) leaseBudget(expected int) time.Duration {
	c.mu.Lock()
	per := c.perRec
	p95 := c.shardPercentileLocked(0.95)
	c.mu.Unlock()
	if per <= 0 {
		return c.opts.ShardTimeout
	}
	est := time.Duration(per * float64(expected) * leaseBudgetSlack)
	if floor := time.Duration(leaseBudgetSlack * p95); est < floor {
		est = floor
	}
	if est < time.Second {
		est = time.Second
	}
	if est > c.opts.ShardTimeout {
		est = c.opts.ShardTimeout
	}
	return est
}

// probe fetches url's health endpoint and returns the worker ID.
func (c *Coordinator) probe(url string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+healthPath, nil)
	if err != nil {
		return "", err
	}
	if c.opts.WorkerToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.opts.WorkerToken)
	}
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("health probe: status %d", resp.StatusCode)
	}
	var body struct {
		Worker string `json:"worker"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", fmt.Errorf("health probe: %w", err)
	}
	return body.Worker, nil
}

// heartbeatLoop probes registered workers at the configured interval and
// feeds the results to their breakers: for a closed worker,
// HeartbeatMisses consecutive failed probes count as one breaker
// failure; for an open worker whose backoff elapsed, the probe is the
// half-open trial and one success closes the circuit again. Open workers
// still inside their backoff are left alone.
func (c *Coordinator) heartbeatLoop() {
	defer close(c.hbDone)
	ticker := time.NewTicker(c.opts.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		c.mu.Lock()
		snapshot := append([]*remoteWorker(nil), c.workers...)
		c.mu.Unlock()
		for _, w := range snapshot {
			c.mu.Lock()
			probeSlot := false
			if w.br.state != breakerClosed {
				if !w.br.allow() {
					c.mu.Unlock()
					continue // open, backoff still running
				}
				probeSlot = true
			}
			c.mu.Unlock()

			_, err := c.probe(w.url)

			c.mu.Lock()
			if err != nil {
				if probeSlot {
					if w.br.failure() {
						c.logf("coord: worker %s (%s) probe failed, circuit re-opened: %v", w.url, w.id, err)
						c.met.BreakerOpen++
					}
				} else {
					w.probeFails++
					if w.probeFails >= c.opts.HeartbeatMisses {
						w.probeFails = 0
						if w.br.failure() {
							c.logf("coord: worker %s (%s) circuit opened after failed probes: %v", w.url, w.id, err)
							c.met.BreakerOpen++
						}
					}
				}
			} else {
				w.probeFails = 0
				if w.br.state != breakerClosed {
					c.logf("coord: worker %s (%s) revived", w.url, w.id)
				}
				w.br.success()
			}
			c.mu.Unlock()
		}
	}
}

// SectionInjector adapts the coordinator to core's distribution seam for
// one benchmark version: install the result as core.Config.SectionInjector
// and every section of that analysis is sharded across the fleet.
func (c *Coordinator) SectionInjector(benchName, variant string) core.SectionInjector {
	return &sectionInjector{c: c, bench: benchName, variant: variant}
}

type sectionInjector struct {
	c              *Coordinator
	bench, variant string
}

func (s *sectionInjector) InjectSection(ctx context.Context, job core.SectionJob) (core.SectionResult, error) {
	return s.c.injectSection(ctx, s.bench, s.variant, job)
}

// dispatch is one lease attempt: its request, the dyn positions it was
// expected to resolve, and the outcome of its stream.
type dispatch struct {
	w         *remoteWorker
	req       ShardRequest
	positions []int
	round     int  // prior lease attempts of its positions (fault-plan Round)
	hedge     bool // this dispatch is a straggler hedge
	hedges    int  // hedges spawned against this dispatch
	start     time.Time
	cancel    context.CancelFunc

	workerID string
	recs     []inject.StreamRecord
	records  int // records delivered (fresh + duplicate)
	fresh    int // records that resolved a class
	sealed   bool
	rejected bool // HTTP-level lease rejection: worker healthy, lease invalid
	canceled bool // section completed or job cancelled mid-stream: neutral
	dur      time.Duration
}

// sectionRun is one section campaign's scheduler state. The run loop
// goroutine owns the scheduling fields (covered/attempts/busy/inflight);
// dispatch goroutines share only the merge state, under mu.
type sectionRun struct {
	c      *Coordinator
	job    core.SectionJob
	inst   *trace.Instance
	req    ShardRequest // template: range, done list, and epoch vary per lease
	order  []int        // dyn position → class index
	maxAtt int

	parent context.Context
	ctx    context.Context // section context: cancelled once the merge completes
	cancel context.CancelFunc

	covered  []int // per position: in-flight leases covering it
	attempts []int // per position: lease attempts spent
	busy     map[*remoteWorker]bool
	inflight map[*dispatch]struct{}
	comp     chan *dispatch

	mu  sync.Mutex // guards mg and res against concurrent stream merges
	mg  *merger
	res *core.SectionResult
}

// injectSection runs one section campaign across the fleet through the
// completion-driven lease scheduler, then finishes any remainder with
// the in-process fallback, so the campaign converges unconditionally.
func (c *Coordinator) injectSection(ctx context.Context, benchName, variant string, job core.SectionJob) (core.SectionResult, error) {
	classes := job.Classes
	inst := job.Trace.Instances[job.Instance]
	res := core.SectionResult{Outcomes: make([]metrics.Outcome, len(classes))}
	if job.CoRun {
		res.Fins = make([]metrics.Outcome, len(classes))
	}
	mg := newMerger(classes, job.Hooks.Skip)
	order := inject.DynOrder(classes)

	req := ShardRequest{
		Bench:       benchName,
		Variant:     variant,
		Instance:    job.Instance,
		SectionKey:  hex.EncodeToString(job.Key[:]),
		Fingerprint: core.CampaignFingerprint(job.Trace.Fingerprint(), job.Config),
		Config:      shardConfig(job.Config),
	}

	if !mg.done() && ctx.Err() == nil {
		sctx, cancel := context.WithCancel(ctx)
		s := &sectionRun{
			c:        c,
			job:      job,
			inst:     inst,
			req:      req,
			order:    order,
			maxAtt:   c.opts.MaxRounds,
			parent:   ctx,
			ctx:      sctx,
			cancel:   cancel,
			covered:  make([]int, len(order)),
			attempts: make([]int, len(order)),
			busy:     make(map[*remoteWorker]bool),
			inflight: make(map[*dispatch]struct{}),
			comp:     make(chan *dispatch),
			mg:       mg,
			res:      &res,
		}
		s.run()
	}

	// Whatever the fleet could not deliver runs in-process — including
	// the whole section when no workers are registered. The skip vector
	// holds everything already merged, so only the true remainder runs.
	if !mg.done() && ctx.Err() == nil {
		skip := mg.skipVector()
		hooks := job.Hooks
		hooks.Skip = skip
		hooks.Range = nil
		inj := &inject.Injector{T: job.Trace, Workers: job.Config.Workers, Legacy: job.Config.LegacyReplay}
		var outs, fins []metrics.Outcome
		var stats inject.Stats
		if job.CoRun {
			outs, fins, stats = inj.RunSectionCoRunResume(ctx, inst, classes, hooks)
		} else {
			outs, stats = inj.RunSectionResume(ctx, inst, classes, hooks)
		}
		for i := range classes {
			if !(i < len(skip) && skip[i]) {
				res.Outcomes[i] = outs[i]
				if res.Fins != nil {
					res.Fins[i] = fins[i]
				}
			}
		}
		res.Stats.Add(stats)
		res.Poisoned = append(res.Poisoned, inj.Poisoned()...)
		c.mu.Lock()
		c.met.LocalFallbackExperiments += uint64(stats.Experiments)
		c.mu.Unlock()
	}
	return res, nil
}

// run is the scheduler loop: lease to every idle usable worker, hedge
// stragglers, fold in completions as they arrive, stop the moment the
// merge is complete (cancelling whatever is still in flight) or no
// further dispatch can make progress.
func (s *sectionRun) run() {
	defer s.cancel()
	for s.parent.Err() == nil && !s.done() {
		s.launchLeases()
		s.launchHedges()
		if len(s.inflight) == 0 {
			break // nothing running, nothing launchable: fallback's turn
		}
		var hedgeC <-chan time.Time
		if at, ok := s.nextHedgeAt(); ok {
			hedgeC = time.After(time.Until(at))
		}
		select {
		case d := <-s.comp:
			s.finalize(d)
		case <-hedgeC:
		case <-s.parent.Done():
		}
	}
	// Drain: cancel in-flight dispatches and absorb their completions so
	// no stream goroutine touches the merge state after we return.
	s.cancel()
	for len(s.inflight) > 0 {
		s.finalize(<-s.comp)
	}
}

func (s *sectionRun) done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mg.done()
}

// candidates returns the dyn positions eligible for a fresh lease:
// unresolved, not covered by an in-flight lease, attempts left.
func (s *sectionRun) candidates() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for p, ci := range s.order {
		if !s.mg.resolved[ci] && s.covered[p] == 0 && s.attempts[p] < s.maxAtt {
			out = append(out, p)
		}
	}
	return out
}

// unresolvedIn filters positions down to those still unresolved.
func (s *sectionRun) unresolvedIn(positions []int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for _, p := range positions {
		if !s.mg.resolved[s.order[p]] {
			out = append(out, p)
		}
	}
	return out
}

// launchLeases hands fresh leases to idle usable workers until either
// runs out. Each lease is a contiguous dyn-order range sized by the
// worker's health-weighted share of the remaining work.
func (s *sectionRun) launchLeases() {
	for {
		cands := s.candidates()
		if len(cands) == 0 {
			return
		}
		w, share := s.c.pickWorker(s.busy, nil)
		if w == nil {
			return
		}
		target := int(math.Ceil(float64(len(cands)) * share))
		if target < 1 {
			target = 1
		}
		chunk := s.chunk(cands, target)
		s.launch(w, chunk, chunk[0], chunk[len(chunk)-1]+1, false)
	}
}

// chunk takes up to target leading candidates, stopping early at any gap
// that contains a position another in-flight lease is still working on —
// a fresh lease must not silently re-run someone else's range.
func (s *sectionRun) chunk(cands []int, target int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	chunk := cands[:1]
	for i := 1; i < len(cands) && len(chunk) < target; i++ {
		crossesInflight := false
		for p := cands[i-1] + 1; p < cands[i]; p++ {
			if s.covered[p] > 0 && !s.mg.resolved[s.order[p]] {
				crossesInflight = true
				break
			}
		}
		if crossesInflight {
			break
		}
		chunk = cands[:i+1]
	}
	return chunk
}

// launchHedges re-leases the unresolved remainder of every straggling
// dispatch — in flight longer than the adaptive threshold, nothing
// hedged against it yet — to an idle worker, racing the original.
func (s *sectionRun) launchHedges() {
	threshold := s.c.stragglerThreshold()
	now := time.Now()
	for d := range s.inflight {
		if d.hedge || d.hedges > 0 || now.Sub(d.start) <= threshold {
			continue
		}
		rem := s.unresolvedIn(d.positions)
		if len(rem) == 0 {
			continue
		}
		w, _ := s.c.pickWorker(s.busy, d.w)
		if w == nil {
			return
		}
		d.hedges++
		s.c.mu.Lock()
		s.c.met.HedgedDispatches++
		s.c.mu.Unlock()
		s.mu.Lock()
		s.res.HedgedDispatches++
		s.mu.Unlock()
		s.c.logf("coord: hedging straggler lease %d (%s, %v in flight) to %s: %d unresolved",
			d.req.Epoch, d.w.url, now.Sub(d.start).Round(time.Millisecond), w.url, len(rem))
		s.launch(w, rem, d.req.Lo, d.req.Hi, true)
	}
}

// nextHedgeAt returns the earliest future instant an in-flight dispatch
// becomes hedge-eligible, provided an idle worker could take the hedge.
func (s *sectionRun) nextHedgeAt() (time.Time, bool) {
	if !s.c.idleUsableExists(s.busy) {
		return time.Time{}, false
	}
	threshold := s.c.stragglerThreshold()
	var at time.Time
	now := time.Now()
	for d := range s.inflight {
		if d.hedge || d.hedges > 0 {
			continue
		}
		due := d.start.Add(threshold)
		if !due.After(now) {
			continue // already eligible; launchHedges had no worker for it
		}
		if at.IsZero() || due.Before(at) {
			at = due
		}
	}
	return at, !at.IsZero()
}

// launch dispatches one lease and tracks it. positions are the pending
// dyn positions the lease is expected to resolve; [lo, hi) is the wire
// range spanning them.
func (s *sectionRun) launch(w *remoteWorker, positions []int, lo, hi int, hedge bool) {
	r := s.req
	r.Lo, r.Hi = lo, hi
	s.mu.Lock()
	r.Done = s.mg.resolvedIndices()
	s.mu.Unlock()
	r.Epoch = s.c.epoch.Add(1)
	round := 0
	for _, p := range positions {
		if s.attempts[p] > round {
			round = s.attempts[p]
		}
		s.attempts[p]++
		s.covered[p]++
	}
	d := &dispatch{w: w, req: r, positions: positions, round: round, hedge: hedge, workerID: w.id, start: time.Now()}
	dctx, cancel := context.WithTimeout(s.ctx, s.c.leaseBudget(len(positions)))
	d.cancel = cancel
	s.busy[w] = true
	s.inflight[d] = struct{}{}
	go func() {
		s.c.fetchShard(dctx, s, d)
		cancel()
		s.comp <- d
	}()
}

// finalize folds one finished dispatch back into the scheduler: frees
// its worker and positions, feeds the breaker and throughput EWMAs, and
// counts a release when an unresolved remainder returns to the queue.
func (s *sectionRun) finalize(d *dispatch) {
	delete(s.inflight, d)
	s.busy[d.w] = false
	for _, p := range d.positions {
		s.covered[p]--
	}

	c := s.c
	c.mu.Lock()
	switch {
	case d.rejected, d.canceled:
		// A rejection means the lease was invalid, not the worker
		// unhealthy; a cancellation means the section no longer needs the
		// stream. Neither moves the breaker.
	case d.sealed:
		d.w.br.success()
		if d.records > 0 {
			sample := float64(d.dur) / float64(d.records)
			d.w.perRecNanos = ewma(d.w.perRecNanos, sample)
			c.perRec = ewma(c.perRec, sample)
		}
	default:
		if d.w.br.failure() {
			c.logf("coord: worker %s (%s) circuit opened after lease %d failed", d.w.url, d.w.id, d.req.Epoch)
			c.met.BreakerOpen++
		}
	}
	c.mu.Unlock()

	if !d.sealed && !d.rejected && len(s.unresolvedIn(d.positions)) > 0 && s.parent.Err() == nil && !s.done() {
		c.mu.Lock()
		c.met.Releases++
		c.mu.Unlock()
		s.mu.Lock()
		s.res.Releases++
		s.mu.Unlock()
	}
}

func ewma(prev, sample float64) float64 {
	if prev <= 0 {
		return sample
	}
	return prev*(1-throughputAlpha) + sample*throughputAlpha
}

// pickWorker selects the idle usable worker with the best health-
// weighted throughput and claims its breaker slot, returning the worker
// and its weight share of all usable workers (busy ones included, so an
// idle worker leaves room in the queue for the rest of the fleet).
func (c *Coordinator) pickWorker(busy map[*remoteWorker]bool, exclude *remoteWorker) (*remoteWorker, float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	skipped := map[*remoteWorker]bool{}
	for {
		var best *remoteWorker
		bestWeight, total := 0.0, 0.0
		for _, w := range c.workers {
			if !w.br.canAttempt() {
				continue
			}
			weight := c.weightLocked(w)
			total += weight
			if w == exclude || busy[w] || skipped[w] {
				continue
			}
			if best == nil || weight > bestWeight {
				best, bestWeight = w, weight
			}
		}
		if best == nil {
			return nil, 0
		}
		if !best.br.allow() {
			// A concurrent probe claimed the half-open slot; try the rest.
			skipped[best] = true
			continue
		}
		if total <= 0 {
			return best, 1
		}
		return best, bestWeight / total
	}
}

// idleUsableExists reports whether any non-busy worker could accept a
// dispatch right now, without claiming a breaker slot.
func (c *Coordinator) idleUsableExists(busy map[*remoteWorker]bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if !busy[w] && w.br.canAttempt() {
			return true
		}
	}
	return false
}

// weightLocked scores a worker for partition sizing: its health EWMA
// scaled by relative throughput, clamped so one outlier cannot starve or
// monopolize the queue; c.mu must be held.
func (c *Coordinator) weightLocked(w *remoteWorker) float64 {
	weight := w.br.health
	if w.perRecNanos > 0 && c.perRec > 0 {
		speed := c.perRec / w.perRecNanos
		if speed < 0.05 {
			speed = 0.05
		}
		if speed > 20 {
			speed = 20
		}
		weight *= speed
	}
	if weight < 0.01 {
		weight = 0.01
	}
	return weight
}

// fetchShard dispatches one lease and streams its records straight into
// the section merge, applying any injected network fault. A transport
// failure, deadline, or cut stream leaves the dispatch unsealed; the
// records that framed cleanly before the failure are already merged.
func (c *Coordinator) fetchShard(ctx context.Context, s *sectionRun, d *dispatch) {
	c.mu.Lock()
	c.met.ShardsDispatched++
	c.met.InflightLeases++
	c.mu.Unlock()
	start := time.Now()
	defer func() {
		d.dur = time.Since(start)
		threshold := c.stragglerThreshold()
		c.mu.Lock()
		c.met.InflightLeases--
		c.met.ShardNanos += int64(d.dur)
		if d.dur > threshold {
			c.met.StragglerNanos += int64(d.dur - threshold)
		}
		if d.sealed {
			c.met.ShardsCompleted++
			c.pushDurLocked(d.dur)
		} else {
			c.met.ShardsFailed++
			c.met.Reassignments++
		}
		c.mu.Unlock()
		s.finishStream(d)
	}()

	var fault ShardFault
	if c.opts.Fault != nil {
		fault = c.opts.Fault(ShardAttempt{Worker: d.w.url, Epoch: d.req.Epoch, Lo: d.req.Lo, Hi: d.req.Hi, Round: d.round, Hedge: d.hedge})
	}
	if fault.Drop {
		c.logf("coord: injected drop of lease %d to %s", d.req.Epoch, d.w.url)
		return
	}
	if fault.Delay > 0 {
		select {
		case <-time.After(fault.Delay):
		case <-ctx.Done():
			d.canceled = s.ctx.Err() != nil
			return
		}
	}

	body, err := json.Marshal(d.req)
	if err != nil {
		c.logf("coord: encoding lease %d: %v", d.req.Epoch, err)
		return
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, d.w.url+shardPath, bytes.NewReader(body))
	if err != nil {
		c.logf("coord: lease %d: %v", d.req.Epoch, err)
		return
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if c.opts.WorkerToken != "" {
		httpReq.Header.Set("Authorization", "Bearer "+c.opts.WorkerToken)
	}
	resp, err := c.opts.Client.Do(httpReq)
	if err != nil {
		d.canceled = s.ctx.Err() != nil
		if !d.canceled {
			c.logf("coord: lease %d to %s: %v", d.req.Epoch, d.w.url, err)
		}
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// A rejection (fingerprint or key mismatch, bad request, bad
		// token) is the worker telling us the lease is invalid, not that
		// the worker is unhealthy: log it and leave the breaker alone.
		d.rejected = true
		if resp.StatusCode == http.StatusUnauthorized {
			c.mu.Lock()
			c.met.AuthFailures++
			c.mu.Unlock()
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		c.logf("coord: worker %s rejected lease %d: status %d: %s", d.w.url, d.req.Epoch, resp.StatusCode, bytes.TrimSpace(msg))
		return
	}
	if id := resp.Header.Get(workerHeader); id != "" {
		d.workerID = id
	}

	reader := inject.NewStreamReader(resp.Body)
	for {
		rec, rerr := reader.Next()
		if rerr == io.EOF {
			break // stream ended without a seal: partial
		}
		if rerr != nil {
			d.canceled = s.ctx.Err() != nil
			if !d.canceled {
				c.logf("coord: lease %d stream from %s: %v", d.req.Epoch, d.w.url, rerr)
			}
			break
		}
		if rec.Type == inject.StreamSeal {
			d.sealed = true
			break
		}
		if fault.RecordDelay > 0 {
			select {
			case <-time.After(fault.RecordDelay):
			case <-ctx.Done():
				d.canceled = s.ctx.Err() != nil
				resp.Body.Close()
				return
			}
		}
		d.recs = append(d.recs, rec)
		d.records++
		s.mergeRecord(d, rec)
		if fault.TruncateAfterRecords > 0 && d.records >= fault.TruncateAfterRecords {
			c.logf("coord: injected cut of lease %d after %d records", d.req.Epoch, d.records)
			resp.Body.Close()
			break
		}
		if fault.StallAfterRecords > 0 && d.records >= fault.StallAfterRecords {
			c.logf("coord: injected stall of lease %d after %d records", d.req.Epoch, d.records)
			<-ctx.Done()
			d.canceled = s.ctx.Err() != nil
			resp.Body.Close()
			return
		}
	}
	if fault.Duplicate {
		for _, rec := range d.recs {
			d.records++
			s.mergeRecord(d, rec)
		}
	}
}

// mergeRecord folds one streamed record into the section result the
// moment it arrives: a fresh record resolves its class (and flows to the
// campaign's Record/Poison hooks, i.e. the WAL); a duplicate — from an
// overlapping range, a replayed delivery, or a hedge racing its
// original — is counted and dropped.
func (s *sectionRun) mergeRecord(d *dispatch, rec inject.StreamRecord) {
	c := s.c
	s.mu.Lock()
	defer s.mu.Unlock()
	switch rec.Type {
	case inject.StreamExperiment:
		c.mu.Lock()
		c.met.RecordsStreamed++
		c.mu.Unlock()
		i, ok := s.mg.resolve(rec.Experiment.Key)
		if !ok {
			c.mu.Lock()
			c.met.DuplicateRecords++
			c.mu.Unlock()
			return
		}
		s.res.Outcomes[i] = rec.Experiment.Out
		if s.res.Fins != nil && rec.Experiment.Fin != nil {
			s.res.Fins[i] = *rec.Experiment.Fin
		}
		s.res.Stats.Add(rec.Experiment.Cost)
		s.res.Remote++
		d.fresh++
		c.mu.Lock()
		c.met.RemoteExperiments++
		c.mu.Unlock()
		if s.job.Hooks.Record != nil {
			s.job.Hooks.Record(i, rec.Experiment.Out, rec.Experiment.Fin, rec.Experiment.Cost)
		}
	case inject.StreamPoison:
		i, ok := s.mg.resolve(rec.Poison.Key)
		if !ok {
			c.mu.Lock()
			c.met.DuplicateRecords++
			c.mu.Unlock()
			return
		}
		// Same conservative semantics as the local supervisor: the
		// class's outcome slots get the +Inf SDC fill, the poison is
		// logged, and the experiment is counted without cost.
		s.res.Outcomes[i] = inject.ConservativeSDC(len(s.inst.IO.Outputs))
		if s.res.Fins != nil {
			s.res.Fins[i] = inject.ConservativeSDC(len(s.job.Trace.Prog.FinalOutputs))
		}
		s.res.Stats.Add(inject.Stats{Experiments: 1})
		d.fresh++
		p := inject.Poison{Class: i, Key: rec.Poison.Key, Attempts: rec.Poison.Attempts, MachineFP: rec.Poison.MachineFP, Stack: rec.Poison.Stack}
		s.res.Poisoned = append(s.res.Poisoned, p)
		if s.job.Hooks.Poison != nil {
			s.job.Hooks.Poison(p)
		}
	}
}

// finishStream records shard provenance for a dispatch that delivered
// anything, under its lease epoch.
func (s *sectionRun) finishStream(d *dispatch) {
	if d.records == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.res.Shards++
	if s.job.Hooks.Shard != nil {
		s.job.Hooks.Shard(inject.WALShard{Worker: d.workerID, Epoch: d.req.Epoch, Lo: d.req.Lo, Hi: d.req.Hi, Records: d.fresh})
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"fastflip/internal/bench"
	"fastflip/internal/core"
	"fastflip/internal/harden"
	"fastflip/internal/knap"
	"fastflip/internal/ostore"
	"fastflip/internal/server"
	"fastflip/internal/service"
	"fastflip/internal/spec"
	"fastflip/internal/store"
)

// serviceBenches are the benchmarks in the service rotation. The store
// cache holds one benchmark, so a job whose benchmark differs from the
// previous job's reads its sections from the shared tier.
var serviceBenches = []string{"bscholes", "sha2", "lud"}

const maxCachedBenches = 1

// serviceWarm counts the warm re-submissions per version and pass. With
// the first submissions and harden jobs, the mix puts the median inside
// the cluster of warm sha2/none and sha2/small jobs and the 90th
// percentile inside the cluster of harden bscholes jobs; see README.md.
var serviceWarm = map[version]int{
	{"bscholes", bench.None}: 8, {"bscholes", bench.Small}: 8, {"bscholes", bench.Large}: 8,
	{"sha2", bench.None}: 25, {"sha2", bench.Small}: 25, {"sha2", bench.Large}: 9,
}

// serviceHardens counts the harden jobs per benchmark and pass, all on
// the original version.
var serviceHardens = map[string]int{"bscholes": 14, "sha2": 2}

// jobKind is the kind of a service job: the first submission of a
// version, a re-submission of an analyzed version, or a harden job.
type jobKind string

const (
	kindFirst  jobKind = "first"
	kindWarm   jobKind = "warm"
	kindHarden jobKind = "harden"
)

type streamJob struct {
	kind jobKind
	v    version
	req  service.Request
}

func (j streamJob) name() string { return fmt.Sprintf("service/%s/%s", j.kind, j.v) }

// genStream draws one pass's job stream from seed. The multiset of jobs
// is fixed; the seed picks the interleaving and the tenants. Within a
// benchmark, first submissions run in version order (none, small, large)
// and harden jobs only after all three, so every job's summary and
// simulated cost are independent of the seed.
func genStream(seed int64) []streamJob {
	rng := rand.New(rand.NewSource(seed))
	type pending struct {
		j     streamJob
		ready func(done map[string]bool) bool
	}
	var todo []pending
	key := func(k jobKind, v version) string { return string(k) + "/" + v.String() }
	for _, b := range serviceBenches {
		for i, vr := range bench.Variants {
			v := version{b, vr}
			var prev string
			if i > 0 {
				prev = key(kindFirst, version{b, bench.Variants[i-1]})
			}
			todo = append(todo, pending{
				j:     streamJob{kind: kindFirst, v: v, req: service.Request{Bench: b, Variant: string(vr), Modified: i > 0}},
				ready: func(done map[string]bool) bool { return prev == "" || done[prev] },
			})
			first := key(kindFirst, v)
			for n := 0; n < serviceWarm[v]; n++ {
				todo = append(todo, pending{
					j:     streamJob{kind: kindWarm, v: v, req: service.Request{Bench: b, Variant: string(vr)}},
					ready: func(done map[string]bool) bool { return done[first] },
				})
			}
		}
	}
	for _, b := range serviceBenches {
		v := version{b, bench.None}
		last := key(kindFirst, version{b, bench.Large})
		for n := 0; n < serviceHardens[b]; n++ {
			todo = append(todo, pending{
				j:     streamJob{kind: kindHarden, v: v, req: service.Request{Bench: b, Variant: string(bench.None), Harden: true}},
				ready: func(done map[string]bool) bool { return done[last] },
			})
		}
	}
	done := map[string]bool{}
	var out []streamJob
	for len(todo) > 0 {
		var ready []int
		for i, p := range todo {
			if p.ready(done) {
				ready = append(ready, i)
			}
		}
		i := ready[rng.Intn(len(ready))]
		j := todo[i].j
		j.req.Tenant = fmt.Sprintf("tenant%d", rng.Intn(2))
		out = append(out, j)
		done[key(j.kind, j.v)] = true
		todo = append(todo[:i], todo[i+1:]...)
	}
	return out
}

// serviceState is an in-process ffserved: a service.Manager with a shared
// outcome tier in a fresh directory, served by server.New on a loopback
// listener, and one closed-loop client on one keep-alive connection.
type serviceState struct {
	stream []streamJob
	progs  map[version]*spec.Program

	dir    string
	tier   *ostore.Store
	mgr    *service.Manager
	srv    *http.Server
	served chan struct{}
	base   string
	client *http.Client
	used   bool

	// mirror holds, per benchmark, the store a traced pass replays jobs'
	// inputs against.
	mirror map[string]*store.Store
}

func setupService(seed int64) (state, error) {
	all, err := buildAll()
	if err != nil {
		return nil, err
	}
	if err := warmUp(all); err != nil {
		return nil, err
	}
	s := &serviceState{progs: all, stream: genStream(seed)}
	if err := s.start(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *serviceState) start() error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "ostore-")
	if err != nil {
		return err
	}
	s.dir = dir
	if s.tier, err = ostore.Open(ostore.Options{Dir: dir}); err != nil {
		return err
	}
	s.mgr = service.New(service.Options{Workers: 1, Shared: s.tier, MaxCachedBenches: maxCachedBenches})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: server.New(s.mgr, nil)}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	s.mirror = map[string]*store.Store{}
	s.used = false
	return nil
}

func (s *serviceState) close() {
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
	_ = s.mgr.Close(ctx)
	_ = s.tier.Close()
	_ = os.RemoveAll(s.dir)
	s.srv = nil
}

// fresh gives a pass a service with empty caches and an empty tier.
func (s *serviceState) fresh() error {
	if !s.used {
		s.used = true
		return nil
	}
	s.close()
	if err := s.start(); err != nil {
		return err
	}
	s.used = true
	return nil
}

// call makes one HTTP round trip and decodes the JSON reply into out.
func (s *serviceState) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func (s *serviceState) metrics() (service.Metrics, error) {
	var m service.Metrics
	err := s.call(http.MethodGet, "/metrics", nil, &m)
	return m, err
}

// submit runs one job through the API: POST /v1/jobs, then long-poll
// GET /v1/jobs/{id}?wait= until the job ends. Each round trip is a span
// under the job's root span.
func (s *serviceState) submit(j streamJob, tr *tracer, root int) (service.JobView, error) {
	var v service.JobView
	h := tr.begin("http.post", j.name(), root)
	err := s.call(http.MethodPost, "/v1/jobs", j.req, &v)
	tr.end(h)
	for err == nil && !v.State.Terminal() {
		h = tr.begin("http.get", j.name(), root)
		err = s.call(http.MethodGet, "/v1/jobs/"+v.ID+"?wait=60s", nil, &v)
		tr.end(h)
	}
	if err == nil && (v.State != service.StateDone || v.Result == nil) {
		err = fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	return v, err
}

// checkJob verifies a finished job's summary against the golden digest.
func checkJob(ck *checker, j streamJob, v service.JobView) error {
	return ck.summary(j.name(), v.Result, v.Result.FFSimInstrs)
}

func (s *serviceState) timed(ck *checker) (pass, error) {
	var p pass
	if err := s.fresh(); err != nil {
		return p, err
	}
	m0, err := s.metrics()
	if err != nil {
		return p, err
	}
	clock := startClock()
	for _, j := range s.stream {
		j0 := time.Now()
		v, err := s.submit(j, nil, 0)
		p.jobs = append(p.jobs, time.Since(j0))
		p.attempted++
		if err != nil {
			p.failed++
			p.extraLines = append(p.extraLines, fmt.Sprintf("failed %s: %v", j.name(), err))
		} else if err := checkJob(ck, j, v); err != nil {
			return p, err
		}
	}
	clock.stop(&p)
	m1, err := s.metrics()
	if err != nil {
		return p, err
	}
	p.simInstrs = m1.SimInstrs - m0.SimInstrs
	ck.check("service/sim_instrs", fmt.Sprint(p.simInstrs))
	p.extraLines = append(p.extraLines, kindLines(s.stream, p.jobs)...)
	return p, nil
}

// kindLines prints each job kind's latency cluster, so the percentiles
// can be seen to fall inside one cluster.
func kindLines(stream []streamJob, lat []time.Duration) []string {
	byKind := map[string][]float64{}
	var names []string
	for i, j := range stream {
		k := string(j.kind) + "/" + j.v.String()
		if _, ok := byKind[k]; !ok {
			names = append(names, k)
		}
		byKind[k] = append(byKind[k], float64(lat[i])/1e6)
	}
	var out []string
	for _, k := range names {
		xs := byKind[k]
		out = append(out, fmt.Sprintf("cluster %s n=%d min=%.1f p50=%.1f max=%.1f ms", k, len(xs), quantile(xs, 0), median(xs), quantile(xs, 1)))
	}
	return out
}

// traced runs the stream with a span per HTTP round trip and the job's
// queue and run intervals as children. The first job of each kind and
// version is then replayed locally through the traced layer walk, with
// Store.Clone, Summarize, the knapsack and harden.Program timed on its
// inputs; later jobs of the same kind and version repeat the same work.
func (s *serviceState) traced(ck *checker, tr *tracer, lm *layerMetrics) error {
	if err := s.fresh(); err != nil {
		return err
	}
	m0, err := s.metrics()
	if err != nil {
		return err
	}
	rt0 := readRuntime()
	replayed := map[string]bool{}
	for _, j := range s.stream {
		lm.attempted++
		start := time.Now()
		root := tr.begin("job", j.name(), 0)
		v, err := s.submit(j, tr, root)
		tr.end(root)
		lat := time.Since(start)
		if err != nil {
			lm.failed++
			continue
		}
		if err := checkJob(ck, j, v); err != nil {
			return err
		}
		if v.StartedAt != nil && v.FinishedAt != nil {
			tr.add("service.queue", j.name(), root, v.CreatedAt, *v.StartedAt)
			tr.add("service.run", j.name(), root, *v.StartedAt, *v.FinishedAt)
			lm.add("service.queue_ms", float64(v.StartedAt.Sub(v.CreatedAt))/1e6)
			lm.add("service.run_ms", float64(v.FinishedAt.Sub(*v.StartedAt))/1e6)
			lm.add("server.overhead_ms", float64(lat-v.FinishedAt.Sub(v.CreatedAt))/1e6)
		}
		if replayed[j.name()] {
			continue
		}
		replayed[j.name()] = true
		if err := s.replay(j, tr, lm); err != nil {
			return fmt.Errorf("%s: %w", j.name(), err)
		}
	}
	lm.add("go.gc_cpu_frac", gcCPUFrac(rt0, readRuntime()))
	m1, err := s.metrics()
	if err != nil {
		return err
	}
	hits, misses := float64(m1.StoreHits-m0.StoreHits), float64(m1.StoreMisses-m0.StoreMisses)
	lm.add("service.cache_hit_frac", ratio(hits, hits+misses))
	sh, sm := float64(m1.SharedHits-m0.SharedHits), float64(m1.SharedMisses-m0.SharedMisses)
	lm.add("ostore.hit_frac", ratio(sh, sh+sm))
	lm.add("ostore.bytes_mb", float64(m1.SharedBytes)/(1<<20))
	return nil
}

// replay re-creates one job's inputs in process: the benchmark's store
// (mirroring the service cache), the traced walk over one clone of it and
// core.Analyzer over another, which the walk must match, then the summary
// encoding, the knapsack sweep and, for harden jobs, the transform and
// the re-injection of the hardened program.
func (s *serviceState) replay(j streamJob, tr *tracer, lm *layerMetrics) error {
	name, p, cfg := j.name(), s.progs[j.v], core.DefaultConfig()
	cfg.PilotInaccuracy = bench.PilotInaccuracies[j.v.bench]
	root := tr.begin("replay", name, 0)
	defer tr.end(root)
	base := s.mirror[j.v.bench]
	if base == nil {
		base = store.New()
	}
	h := tr.begin("store.clone", name, root)
	st := base.Clone()
	tr.end(h)
	w, err := walk(tr, lm, name, root, p, st, cfg)
	if err != nil {
		return fmt.Errorf("traced walk: %w", err)
	}
	a := &core.Analyzer{Cfg: cfg, Store: base.Clone()}
	r, err := a.Analyze(p)
	if err != nil {
		return err
	}
	if err := w.parity(r); err != nil {
		return fmt.Errorf("walk parity: %w", err)
	}
	s.mirror[j.v.bench] = a.Store

	h = tr.begin("core.summarize", name, root)
	_, err = json.Marshal(r.Summarize(0, nil))
	tr.end(h)
	if err != nil {
		return err
	}
	h = tr.begin("knap.solve", name, root)
	solver := knap.New(r.Items(r.FFBadCounts(0)))
	// Sweep fails only for a target above the labeling's reachable value;
	// the solve it timed is complete either way.
	_, _ = solver.Sweep(cfg.Targets)
	tr.end(h)
	if j.kind != kindHarden {
		return nil
	}
	sel, err := solver.MinCostFor(0.95)
	if err != nil {
		if sel, err = solver.MinCostFor(solver.MaxValue()); err != nil {
			return err
		}
	}
	h = tr.begin("harden.apply", name, root)
	_, _, err = harden.Program(r.Prog, sel.Set(), harden.Options{})
	tr.end(h)
	if err != nil {
		return err
	}
	apply := tr.dur(h)
	h = tr.begin("harden.loop", name, root)
	_, err = a.Harden(context.Background(), r, 0, 0.95)
	tr.end(h)
	lm.add("harden.reinject_ms", float64(tr.dur(h)-apply)/1e6)
	return err
}

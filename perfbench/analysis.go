package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"fastflip/internal/bench"
	"fastflip/internal/chisel"
	"fastflip/internal/core"
	"fastflip/internal/inject"
	"fastflip/internal/maskelide"
	"fastflip/internal/metrics"
	"fastflip/internal/sens"
	"fastflip/internal/sites"
	"fastflip/internal/spec"
	"fastflip/internal/store"
	"fastflip/internal/trace"
)

// version is one program version: a benchmark and its variant.
type version struct {
	bench   string
	variant bench.Variant
}

func (v version) String() string { return v.bench + "/" + string(v.variant) }

// analysisState drives the scratch and incremental workloads: a seeded
// order of program versions, each analyzed by core.Analyzer from an empty
// store (scratch) or from a clone of its benchmark's seeded store
// (incremental).
type analysisState struct {
	kind  string
	order []version
	progs map[version]*spec.Program
	// seeds holds one store per benchmark, seeded with the original
	// version's analysis (incremental only).
	seeds map[string]*store.Store
}

// buildAll builds every version of every benchmark.
func buildAll() (map[version]*spec.Program, error) {
	progs := make(map[version]*spec.Program)
	for _, b := range bench.Names() {
		for _, v := range bench.Variants {
			p, err := bench.Build(b, v)
			if err != nil {
				return nil, err
			}
			progs[version{b, v}] = p
		}
	}
	return progs, nil
}

// warmUp analyzes lud/none once so that lazy runtime set-up and the first
// heap growth land in set-up, not in the timed phase.
func warmUp(progs map[version]*spec.Program) error {
	_, err := core.NewAnalyzer(core.DefaultConfig()).Analyze(progs[version{"lud", bench.None}])
	return err
}

// shuffled returns vs in an order drawn from seed.
func shuffled(vs []version, seed int64) []version {
	out := append([]version(nil), vs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func setupScratch(seed int64) (state, error) {
	progs, err := buildAll()
	if err != nil {
		return nil, err
	}
	if err := warmUp(progs); err != nil {
		return nil, err
	}
	var vs []version
	for _, b := range bench.Names() {
		for _, v := range bench.Variants {
			vs = append(vs, version{b, v})
		}
	}
	return &analysisState{kind: "scratch", order: shuffled(vs, seed), progs: progs}, nil
}

// setupIncremental seeds one store per benchmark with the analysis of its
// original version; seeding lud/none doubles as the warm-up.
func setupIncremental(seed int64) (state, error) {
	progs, err := buildAll()
	if err != nil {
		return nil, err
	}
	s := &analysisState{kind: "incremental", progs: progs, seeds: map[string]*store.Store{}}
	var vs []version
	for _, b := range bench.Names() {
		a := core.NewAnalyzer(core.DefaultConfig())
		if _, err := a.Analyze(progs[version{b, bench.None}]); err != nil {
			return nil, fmt.Errorf("seeding %s: %w", b, err)
		}
		s.seeds[b] = a.Store
		vs = append(vs, version{b, bench.Small}, version{b, bench.Large})
	}
	s.order = shuffled(vs, seed)
	return s, nil
}

func (s *analysisState) close() {}

// analyzer returns the analyzer one version is analyzed with: a fresh
// store for scratch, a clone of the benchmark's seeded store otherwise.
func (s *analysisState) analyzer(v version) *core.Analyzer {
	if s.seeds == nil {
		return core.NewAnalyzer(core.DefaultConfig())
	}
	return &core.Analyzer{Cfg: core.DefaultConfig(), Store: s.seeds[v.bench].Clone()}
}

func (s *analysisState) timed(ck *checker) (pass, error) {
	var p pass
	clock := startClock()
	for _, v := range s.order {
		j0 := time.Now()
		r, err := s.analyzer(v).Analyze(s.progs[v])
		p.jobs = append(p.jobs, time.Since(j0))
		p.attempted++
		if err != nil {
			p.failed++
			p.extraLines = append(p.extraLines, fmt.Sprintf("failed %s: %v", v, err))
		} else {
			p.simInstrs += r.FFCost()
			if err := ck.summary(s.kind+"/"+v.String(), r.Summarize(0, nil), r.FFCost()); err != nil {
				return p, err
			}
		}
	}
	clock.stop(&p)
	return p, nil
}

// traced analyzes every version twice: once with core.Analyzer, untraced,
// for the golden check and the parity reference, then through the traced
// walk. The walk must reproduce the analyzer's per-class outcomes, site
// count and cost exactly.
func (s *analysisState) traced(ck *checker, tr *tracer, lm *layerMetrics) error {
	rt0 := readRuntime()
	for _, v := range s.order {
		job := s.kind + "/" + v.String()
		lm.attempted++
		t0 := time.Now()
		r, err := s.analyzer(v).Analyze(s.progs[v])
		lm.add("untraced_s", time.Since(t0).Seconds())
		if err != nil {
			lm.failed++
			continue
		}
		if err := ck.summary(job, r.Summarize(0, nil), r.FFCost()); err != nil {
			return err
		}

		t0 = time.Now()
		root := tr.begin("analysis", job, 0)
		st := store.New()
		if s.seeds != nil {
			h := tr.begin("store.clone", job, root)
			st = s.seeds[v.bench].Clone()
			tr.end(h)
		}
		w, err := walk(tr, lm, job, root, s.progs[v], st, core.DefaultConfig())
		tr.end(root)
		lm.add("traced_s", time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("%s: traced walk: %w", job, err)
		}
		if err := w.parity(r); err != nil {
			return fmt.Errorf("%s: walk parity: %w", job, err)
		}
	}
	lm.add("go.gc_cpu_frac", gcCPUFrac(rt0, readRuntime()))
	return nil
}

// walked is what the traced walk produced for one analysis.
type walked struct {
	outcomes  []core.ClassOutcome
	siteCount int
	cost      uint64
}

// walk runs one analysis through the layers' public calls in the order
// core.Analyzer.AnalyzeContext makes them (default configuration: no
// write-ahead log, no co-run, local injection): record, mask, count, then
// per instance classify, key, lookup and, on a miss, inject, sens and put;
// then untested and compose. Each call is wrapped in a span under parent.
func walk(tr *tracer, lm *layerMetrics, job string, parent int, p *spec.Program, st *store.Store, cfg core.Config) (*walked, error) {
	ctx := context.Background()
	h := tr.begin("trace.record", job, parent)
	t, err := trace.RecordWith(p, trace.Options{CheckpointInterval: cfg.CheckpointInterval})
	tr.end(h)
	if err != nil {
		return nil, err
	}
	opts := sites.Options{Prune: cfg.Prune, Width: cfg.BurstWidth}
	if cfg.Elide {
		h = tr.begin("maskelide.analyze", job, parent)
		opts.Masks = maskelide.Analyze(t.Prog.Linked)
		tr.end(h)
	}
	h = tr.begin("sites.count", job, parent)
	w := &walked{siteCount: sites.Count(t, opts)}
	tr.end(h)
	amps := make([]*sens.Amplification, len(t.Instances))

	inj := &inject.Injector{T: t, Workers: cfg.Workers}
	var injStats inject.Stats
	var sensStats sens.Stats
	for idx, inst := range t.Instances {
		a0 := readRuntime()
		h = tr.begin("sites.classify", job, parent)
		classes := sites.ForInstance(t, inst, opts)
		tr.end(h)
		lm.add("sites.alloc_mb", allocMiB(a0, readRuntime()))
		classify := tr.dur(h)

		h = tr.begin("store.key", job, parent)
		key, err := store.KeyFor(t, inst)
		tr.end(h)
		if err != nil {
			return nil, err
		}
		h = tr.begin("store.lookup", job, parent)
		sec := lookup(st, key, classes)
		tr.end(h)
		lm.add("store.instances", 1)

		var outs []metrics.Outcome
		if sec != nil {
			lm.add("store.reused", 1)
			lm.add("sites.classify_reused_ms", float64(classify)/1e6)
			for _, c := range classes {
				outs = append(outs, sec.Outcomes[c.Key].ToMetrics())
			}
			amps[idx] = &sens.Amplification{K: sec.Amp}
		} else {
			a0 = readRuntime()
			h = tr.begin("inject.run", job, parent)
			var stats inject.Stats
			outs, stats = inj.RunSection(ctx, inst, classes)
			tr.end(h)
			lm.add("inject.alloc_mb", allocMiB(a0, readRuntime()))
			injStats.Add(stats)

			h = tr.begin("sens.analyze", job, parent)
			amp, ss := sens.Analyze(t, inst, cfg.Sens)
			tr.end(h)
			sensStats.Runs += ss.Runs
			sensStats.SimInstrs += ss.SimInstrs
			amps[idx] = amp

			h = tr.begin("store.put", job, parent)
			stored := &store.Section{Outcomes: make(map[sites.ClassKey]store.Outcome, len(classes)), Amp: amp.K, SimInstrs: stats.SimInstrs}
			for i, c := range classes {
				stored.Outcomes[c.Key] = store.FromMetrics(outs[i])
			}
			st.Put(key, stored)
			tr.end(h)
		}
		for i, c := range classes {
			w.outcomes = append(w.outcomes, core.ClassOutcome{Key: c.Key, Inst: idx, Size: c.Size(), Out: outs[i]})
		}
	}
	h = tr.begin("sites.untested", job, parent)
	sites.Untested(t, opts)
	tr.end(h)
	h = tr.begin("chisel.compose", job, parent)
	_, err = chisel.Compose(t, amps)
	tr.end(h)
	if err != nil {
		return nil, err
	}

	w.cost = injStats.SimInstrs + sensStats.SimInstrs
	lm.add("inject.experiments", float64(injStats.Experiments))
	lm.add("inject.elided", float64(injStats.ElidedExperiments))
	lm.add("inject.batched", float64(injStats.BatchExperiments))
	lm.add("inject.clean", float64(injStats.CleanInstrs))
	lm.add("inject.faulty", float64(injStats.FaultyInstrs))
	lm.add("sens.runs", float64(sensStats.Runs))
	return w, nil
}

// lookup mirrors the analyzer's store lookup: a stored section is usable
// only if it covers every class of the current enumeration.
func lookup(st *store.Store, key store.Key, classes []*sites.Class) *store.Section {
	sec := st.Lookup(key)
	if sec == nil {
		return nil
	}
	for _, c := range classes {
		if _, ok := sec.Outcomes[c.Key]; !ok {
			return nil
		}
	}
	return sec
}

// parity reports the first difference between the walk and r.
func (w *walked) parity(r *core.Result) error {
	if w.siteCount != r.SiteCount {
		return fmt.Errorf("site count %d, analyzer %d", w.siteCount, r.SiteCount)
	}
	if w.cost != r.FFCost() {
		return fmt.Errorf("cost %d, analyzer %d", w.cost, r.FFCost())
	}
	want := r.ClassOutcomes()
	if len(w.outcomes) != len(want) {
		return fmt.Errorf("%d class outcomes, analyzer %d", len(w.outcomes), len(want))
	}
	for i, got := range w.outcomes {
		if !sameOutcome(got, want[i]) {
			return fmt.Errorf("class %d (%v, instance %d): %+v, analyzer %+v", i, got.Key, got.Inst, got.Out, want[i].Out)
		}
	}
	return nil
}

func sameOutcome(a, b core.ClassOutcome) bool {
	if a.Key != b.Key || a.Inst != b.Inst || a.Size != b.Size || a.Out.Kind != b.Out.Kind ||
		a.Out.Reason != b.Out.Reason || len(a.Out.Magnitudes) != len(b.Out.Magnitudes) {
		return false
	}
	for i, m := range a.Out.Magnitudes {
		if math.Float64bits(m) != math.Float64bits(b.Out.Magnitudes[i]) {
			return false
		}
	}
	return true
}

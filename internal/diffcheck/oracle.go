package diffcheck

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"

	"fastflip/internal/core"
	"fastflip/internal/harden"
	"fastflip/internal/metrics"
	"fastflip/internal/ostore"
	"fastflip/internal/prog"
	"fastflip/internal/spec"
	"fastflip/internal/vm"
)

// Invariant names the four differential invariants.
type Invariant string

const (
	// InvSound: the composed per-section SDC bound covers the monolithic
	// co-run ground truth — every experiment whose end-to-end outcome is a
	// real SDC must be classified SDC-Bad by the composed specification.
	InvSound Invariant = "sound"
	// InvIncremental: incremental re-analysis after an edit equals a
	// from-scratch analysis of the edited program.
	InvIncremental Invariant = "incremental"
	// InvResume: a campaign killed mid-WAL and resumed converges to the
	// uninterrupted summary.
	InvResume Invariant = "resume"
	// InvEngines: the legacy and clean-cursor replay engines agree on
	// every per-class outcome.
	InvEngines Invariant = "engines"
	// InvHarden: the hardening transform is semantics-preserving — with
	// every eligible instruction protected, the hardened program's
	// fault-free run produces the same final memory, registers, and halt
	// status as the original.
	InvHarden Invariant = "harden"
)

// Invariants lists all five in fixed order.
var Invariants = []Invariant{InvSound, InvIncremental, InvResume, InvEngines, InvHarden}

// Violation describes one failed invariant check on one generated
// program. It satisfies error so checks compose with normal error plumbing.
type Violation struct {
	Invariant Invariant `json:"invariant"`
	Seed      uint64    `json:"seed"`
	Detail    string    `json:"detail"`
	Prog      *Prog     `json:"prog"`
	Edit      *Edit     `json:"edit,omitempty"`
}

func (v *Violation) Error() string {
	return fmt.Sprintf("diffcheck: invariant %q violated on seed %#x (%d sections): %s",
		v.Invariant, v.Seed, len(v.Prog.Secs), v.Detail)
}

func violationf(inv Invariant, g *Prog, e *Edit, format string, args ...any) *Violation {
	return &Violation{Invariant: inv, Seed: g.Seed, Detail: fmt.Sprintf(format, args...), Prog: g, Edit: e}
}

// baseConfig is the analysis configuration shared by all oracles: no
// target evaluation, no adaptive adjustment, ε = 0.
func baseConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Targets = nil
	cfg.AdjustTargets = false
	cfg.Epsilon = 0
	return cfg
}

func build(inv Invariant, g *Prog, e *Edit) (*spec.Program, *Violation) {
	p, err := g.Program()
	if err != nil {
		// A generated or shrunk program that fails to compile is itself a
		// bug worth reporting — the generator's contract is well-formedness.
		return nil, violationf(inv, g, e, "program construction failed: %v", err)
	}
	return p, nil
}

func maxMag(mags []float64) float64 {
	m := 0.0
	for _, v := range mags {
		if v > m {
			m = v
		}
	}
	return m
}

// CheckSoundness verifies invariant 1 on a FamilySound program: running
// the per-section campaign with the co-run monolithic baseline, every
// experiment whose end-to-end outcome is an SDC with a real value
// difference must be classified SDC-Bad by the composed specification at
// ε = 0, and the per-static SDC-Bad counts from the composed bound must
// dominate the co-run ground truth.
func CheckSoundness(g *Prog) *Violation {
	p, v := build(InvSound, g, nil)
	if v != nil {
		return v
	}
	cfg := baseConfig()
	cfg.CoRunBaseline = true
	r, err := core.NewAnalyzer(cfg).Analyze(p)
	if err != nil {
		return violationf(InvSound, g, nil, "analysis failed: %v", err)
	}
	zeroEps := make([]float64, len(p.FinalOutputs))
	for _, co := range r.ClassOutcomes() {
		if co.Fin == nil || co.Fin.Kind != metrics.SDC || maxMag(co.Fin.Magnitudes) == 0 {
			continue
		}
		if !r.Spec.Bad(co.Inst, co.Out.Magnitudes, zeroEps) {
			return violationf(InvSound, g, nil,
				"class %v inst %d: co-run ground truth is SDC (max mag %g) but composed bound classifies benign (section outcome %v, mags %v)",
				co.Key, co.Inst, maxMag(co.Fin.Magnitudes), co.Out.Kind, co.Out.Magnitudes)
		}
	}
	ff := r.FFBadCounts(0)
	truth := r.CoRunBadCounts(0)
	for id, n := range truth.PerStatic {
		if ff.PerStatic[id] < n {
			return violationf(InvSound, g, nil,
				"static %v: composed bound marks %d sites SDC-Bad, co-run ground truth has %d",
				id, ff.PerStatic[id], n)
		}
	}
	return nil
}

// CheckIncremental verifies invariant 2: analyze the base program, note
// the modification, re-analyze the edited program with the warm store,
// and require the result to equal a from-scratch analysis of the edited
// program — per-class outcomes and the engine-work-neutralized summary —
// while reusing at least MinReuse section instances.
func CheckIncremental(g *Prog, e *Edit) *Violation {
	edited := e.Apply(g)
	pBase, v := build(InvIncremental, g, e)
	if v != nil {
		return v
	}
	pEdit, v := build(InvIncremental, edited, e)
	if v != nil {
		return v
	}
	cfg := baseConfig()
	// Strict keys make reuse exact: a fault-deflected load can observe
	// output/live words outside the declared inputs, so equality with the
	// from-scratch analysis only holds when those contents are keyed (the
	// fuzzer found the divergence under default keys; see DESIGN.md §10).
	cfg.StrictReuseKeys = true

	a := core.NewAnalyzer(cfg)
	if _, err := a.Analyze(pBase); err != nil {
		return violationf(InvIncremental, g, e, "base analysis failed: %v", err)
	}
	a.NoteModification()
	rIncr, err := a.Analyze(pEdit)
	if err != nil {
		return violationf(InvIncremental, g, e, "incremental analysis failed: %v", err)
	}
	rScratch, err := core.NewAnalyzer(cfg).Analyze(pEdit)
	if err != nil {
		return violationf(InvIncremental, g, e, "scratch analysis failed: %v", err)
	}

	if v := compareOutcomes(InvIncremental, g, e, rScratch, rIncr, "scratch", "incremental"); v != nil {
		return v
	}
	sIncr := rIncr.Summarize(cfg.Epsilon, nil)
	sScratch := rScratch.Summarize(cfg.Epsilon, nil)
	for _, s := range []*core.Summary{sIncr, sScratch} {
		neutralizeWork(s)
		// Reuse legitimately splits the work between store hits and fresh
		// injection; everything outcome-shaped must still match. The
		// elided subset is part of that split — a reused instance serves
		// its outcomes from the store without re-proving elision.
		s.Reused, s.Injected = 0, 0
		s.FFExperiments = 0
		s.FFSimInstrs = 0
		s.ElidedExperiments, s.ElidedSimInstrs = 0, 0
	}
	if !reflect.DeepEqual(sIncr, sScratch) {
		return violationf(InvIncremental, g, e,
			"summaries differ (edit %s):\nincremental: %+v\nscratch:     %+v", e.Kind, sIncr, sScratch)
	}
	if min := MinReuse(len(g.Secs), e); rIncr.ReusedInstances < min {
		return violationf(InvIncremental, g, e,
			"edit %s reused %d section instances, want at least %d", e.Kind, rIncr.ReusedInstances, min)
	}
	return nil
}

// CheckIncrementalTier verifies invariant 2 with the reuse flowing
// through the shared outcome tier instead of a warm in-memory store: the
// base program is analyzed by one process-equivalent (its own
// ostore.Store handle over dir, publishing every section), the edited
// program by a second handle with a completely fresh section store — so
// every reused section must round-trip through gob, the segment file, and
// the cross-handle directory rescan — and the result must still equal a
// from-scratch analysis of the edited program. dir is a scratch
// directory; "" allocates a temporary one.
func CheckIncrementalTier(g *Prog, e *Edit, dir string) *Violation {
	edited := e.Apply(g)
	pBase, v := build(InvIncremental, g, e)
	if v != nil {
		return v
	}
	pEdit, v := build(InvIncremental, edited, e)
	if v != nil {
		return v
	}
	if dir == "" {
		d, err := os.MkdirTemp("", "diffcheck-ostore-")
		if err != nil {
			return violationf(InvIncremental, g, e, "mkdir temp: %v", err)
		}
		defer os.RemoveAll(d)
		dir = d
	}
	cfg := baseConfig()
	cfg.StrictReuseKeys = true // see CheckIncremental

	os1, err := ostore.Open(ostore.Options{Dir: dir})
	if err != nil {
		return violationf(InvIncremental, g, e, "opening shared tier: %v", err)
	}
	a1 := core.NewAnalyzer(cfg)
	a1.Store.WithTier(os1.AsTier("base"))
	if _, err := a1.Analyze(pBase); err != nil {
		return violationf(InvIncremental, g, e, "base analysis failed: %v", err)
	}
	if err := os1.Close(); err != nil {
		return violationf(InvIncremental, g, e, "publishing base sections: %v", err)
	}

	os2, err := ostore.Open(ostore.Options{Dir: dir})
	if err != nil {
		return violationf(InvIncremental, g, e, "reopening shared tier: %v", err)
	}
	defer os2.Close()
	a2 := core.NewAnalyzer(cfg)
	a2.Store.WithTier(os2.AsTier("incr"))
	a2.NoteModification()
	rIncr, err := a2.Analyze(pEdit)
	if err != nil {
		return violationf(InvIncremental, g, e, "incremental analysis failed: %v", err)
	}
	rScratch, err := core.NewAnalyzer(cfg).Analyze(pEdit)
	if err != nil {
		return violationf(InvIncremental, g, e, "scratch analysis failed: %v", err)
	}

	if v := compareOutcomes(InvIncremental, g, e, rScratch, rIncr, "scratch", "incremental-tier"); v != nil {
		return v
	}
	sIncr := rIncr.Summarize(cfg.Epsilon, nil)
	sScratch := rScratch.Summarize(cfg.Epsilon, nil)
	for _, s := range []*core.Summary{sIncr, sScratch} {
		neutralizeWork(s)
		s.Reused, s.Injected = 0, 0
		s.FFExperiments = 0
		s.FFSimInstrs = 0
		s.ElidedExperiments, s.ElidedSimInstrs = 0, 0
	}
	if !reflect.DeepEqual(sIncr, sScratch) {
		return violationf(InvIncremental, g, e,
			"summaries differ with shared tier (edit %s):\nincremental: %+v\nscratch:     %+v", e.Kind, sIncr, sScratch)
	}
	if min := MinReuse(len(g.Secs), e); rIncr.ReusedInstances < min {
		return violationf(InvIncremental, g, e,
			"edit %s reused %d section instances through the shared tier, want at least %d", e.Kind, rIncr.ReusedInstances, min)
	}
	return nil
}

// CheckResume verifies invariant 3: a WAL-backed campaign cancelled after
// its first injected instance, resumed by a fresh analyzer, must converge
// to the uninterrupted run's summary and per-class outcomes, re-executing
// exactly the remainder. walDir is a scratch directory; "" allocates a
// temporary one.
func CheckResume(g *Prog, walDir string) *Violation {
	p, v := build(InvResume, g, nil)
	if v != nil {
		return v
	}
	if walDir == "" {
		dir, err := os.MkdirTemp("", "diffcheck-wal-")
		if err != nil {
			return violationf(InvResume, g, nil, "mkdir temp: %v", err)
		}
		defer os.RemoveAll(dir)
		walDir = dir
	}
	cfg := baseConfig()
	cfg.Workers = 1 // deterministic crash point

	rRef, err := core.NewAnalyzer(cfg).Analyze(p)
	if err != nil {
		return violationf(InvResume, g, nil, "reference analysis failed: %v", err)
	}

	cfg1 := cfg
	cfg1.WALDir = walDir
	a1 := core.NewAnalyzer(cfg1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a1.Progress = func(pr core.Progress) {
		if pr.Injected >= 1 {
			cancel()
		}
	}
	if _, err := a1.AnalyzeContext(ctx, p); !errors.Is(err, context.Canceled) {
		return violationf(InvResume, g, nil, "interrupted analysis returned %v, want context.Canceled", err)
	}

	cfg2 := cfg
	cfg2.WALDir = walDir
	cfg2.Resume = true
	r2, err := core.NewAnalyzer(cfg2).Analyze(p)
	if err != nil {
		return violationf(InvResume, g, nil, "resumed analysis failed: %v", err)
	}
	if r2.ResumedExperiments() == 0 {
		return violationf(InvResume, g, nil, "resume recovered nothing from the WAL")
	}
	newWork := r2.FFInject.Experiments - r2.FFRecovered.Experiments
	if want := rRef.FFInject.Experiments - r2.FFRecovered.Experiments; newWork != want {
		return violationf(InvResume, g, nil,
			"resume re-executed %d experiments, want exactly the remainder %d", newWork, want)
	}
	if v := compareOutcomes(InvResume, g, nil, rRef, r2, "uninterrupted", "resumed"); v != nil {
		return v
	}
	sRef := rRef.Summarize(cfg.Epsilon, nil)
	s2 := r2.Summarize(cfg.Epsilon, nil)
	neutralizeWork(sRef)
	neutralizeWork(s2)
	if !reflect.DeepEqual(sRef, s2) {
		return violationf(InvResume, g, nil,
			"resumed summary differs from uninterrupted run:\nref:     %+v\nresumed: %+v", sRef, s2)
	}
	return nil
}

// engineConfigs is the replay-engine matrix the engines invariant sweeps:
// the default cursor engine with static-masking elision, the same engine
// with elision disabled, and the legacy full-restore engine. All three
// must agree experiment by experiment. Exhaustive disables elision, so its
// accounted costs legitimately differ (see neutralizeElision).
var engineConfigs = []struct {
	name       string
	exhaustive bool
	mut        func(*core.Config)
}{
	{name: "cursor", mut: func(*core.Config) {}},
	{name: "cursor-exhaustive", exhaustive: true, mut: func(c *core.Config) { c.Elide = false }},
	{name: "legacy", mut: func(c *core.Config) {
		c.LegacyReplay = true
		c.CheckpointInterval = -1
	}},
}

// CheckEngines verifies invariant 4 over the full engine matrix: the
// legacy full-restore engine, the clean-cursor engine, and the clean-cursor
// engine with the static masking tier disabled (exhaustive) all agree on
// every per-class outcome, on the
// work-neutralized summary, and on the rendered end-to-end specification.
// Exhaustive agreement is the elision tier's correctness claim: every
// experiment the masking proof skipped really is Masked when simulated.
func CheckEngines(g *Prog) *Violation {
	p, v := build(InvEngines, g, nil)
	if v != nil {
		return v
	}
	results := make([]*core.Result, len(engineConfigs))
	for i, ec := range engineConfigs {
		cfg := baseConfig()
		ec.mut(&cfg)
		r, err := core.NewAnalyzer(cfg).Analyze(p)
		if err != nil {
			return violationf(InvEngines, g, nil, "analysis (%s) failed: %v", ec.name, err)
		}
		results[i] = r
	}
	ref, refName := results[0], engineConfigs[0].name
	sRef := ref.Summarize(0, nil)
	neutralizeWork(sRef)
	for i, ec := range engineConfigs[1:] {
		r := results[i+1]
		if v := compareOutcomes(InvEngines, g, nil, ref, r, refName, ec.name); v != nil {
			return v
		}
		s := r.Summarize(0, nil)
		neutralizeWork(s)
		want := sRef
		if ec.exhaustive {
			want = new(core.Summary)
			*want = *sRef
			if sRef.Baseline != nil {
				bl := *sRef.Baseline
				want.Baseline = &bl
			}
			neutralizeElision(want)
			neutralizeElision(s)
		}
		if !reflect.DeepEqual(want, s) {
			return violationf(InvEngines, g, nil,
				"summaries differ:\n%s: %+v\n%s: %+v", refName, want, ec.name, s)
		}
		for λ := range p.FinalOutputs {
			if a, b := ref.FormatSpec(λ), r.FormatSpec(λ); a != b {
				return violationf(InvEngines, g, nil,
					"end-to-end specification %d differs:\n%s: %s\n%s: %s", λ, refName, a, ec.name, b)
			}
		}
	}
	return nil
}

// CheckHarden verifies the harden invariant: protect every eligible
// instruction of the generated program with duplication-and-compare
// detectors and require the hardened fault-free run to halt with the same
// final memory (below the original MemWords — the detector spill slots
// above are private) and the same register files as the original. A
// detector that fires without a fault, a mis-remapped branch, or an
// unrestored spill all surface here as state divergence.
func CheckHarden(g *Prog) *Violation {
	p, v := build(InvHarden, g, nil)
	if v != nil {
		return v
	}
	m := p.NewMachine()
	m.MaxDyn = 1 << 22
	if ev := m.Run(); ev.Kind != vm.EvHalt {
		return violationf(InvHarden, g, nil, "original run did not halt: %v (status %v)", ev.Kind, m.Status)
	}

	sel := make(map[prog.StaticID]bool, len(p.Linked.Code))
	for pc := range p.Linked.Code {
		sel[p.Linked.StaticIDOf(pc)] = true
	}
	hp, res, err := harden.Program(p, sel, harden.Options{})
	if err != nil {
		return violationf(InvHarden, g, nil, "hardening failed: %v", err)
	}
	hm := hp.NewMachine()
	hm.MaxDyn = 1 << 22
	if ev := hm.Run(); ev.Kind != vm.EvHalt {
		return violationf(InvHarden, g, nil,
			"hardened run did not halt: %v (status %v, pc %d; %d protected, %d spills)",
			ev.Kind, hm.Status, hm.PC, len(res.Protected), res.Spills)
	}
	for i := 0; i < p.MemWords; i++ {
		if m.Mem[i] != hm.Mem[i] {
			return violationf(InvHarden, g, nil,
				"mem[%d] diverged: original %#x, hardened %#x", i, m.Mem[i], hm.Mem[i])
		}
	}
	if m.R != hm.R {
		return violationf(InvHarden, g, nil, "integer registers diverged:\noriginal %v\nhardened %v", m.R, hm.R)
	}
	if m.F != hm.F {
		return violationf(InvHarden, g, nil, "float registers diverged:\noriginal %v\nhardened %v", m.F, hm.F)
	}
	return nil
}

// compareOutcomes requires identical per-class outcome sequences.
func compareOutcomes(inv Invariant, g *Prog, e *Edit, want, got *core.Result, wantName, gotName string) *Violation {
	a, b := want.ClassOutcomes(), got.ClassOutcomes()
	if len(a) != len(b) {
		return violationf(inv, g, e, "class count: %s %d, %s %d", wantName, len(a), gotName, len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Inst != b[i].Inst {
			return violationf(inv, g, e, "class %d identity differs: %s %v inst %d, %s %v inst %d",
				i, wantName, a[i].Key, a[i].Inst, gotName, b[i].Key, b[i].Inst)
		}
		if !reflect.DeepEqual(a[i], b[i]) {
			return violationf(inv, g, e, "class %v inst %d: %s outcome %+v, %s outcome %+v",
				a[i].Key, a[i].Inst, wantName, a[i], gotName, b[i])
		}
	}
	return nil
}

// neutralizeWork zeroes summary fields that legitimately differ between
// two runs of the same analysis: wall time, the engine work split, and
// resume/WAL bookkeeping. Outcome counts and accounted costs survive.
func neutralizeWork(s *core.Summary) {
	s.FFWall = 0
	s.FFCleanInstrs, s.FFFaultyInstrs = 0, 0
	s.ResumedExperiments = 0
	s.WALNotes = nil
	if s.Baseline != nil {
		s.Baseline.Wall = 0
		s.Baseline.CleanInstrs, s.Baseline.FaultyInstrs = 0, 0
	}
}

// neutralizeElision additionally zeroes the accounted-cost fields that an
// elide-on vs elide-off comparison legitimately disagrees on: an elided
// experiment is charged only its clean prefix, so total accounted cost
// (and the baseline speedup derived from it) shifts while every outcome
// stays byte-identical — which is exactly what the engine matrix asserts.
func neutralizeElision(s *core.Summary) {
	s.FFSimInstrs = 0
	s.ElidedExperiments, s.ElidedSimInstrs = 0, 0
	if s.Baseline != nil {
		s.Baseline.SimInstrs = 0
		s.Baseline.ElidedExperiments, s.Baseline.ElidedSimInstrs = 0, 0
		s.Baseline.Speedup = 0
	}
}

// Check dispatches one invariant on one seed: it generates the program
// (FamilySound for the soundness oracle, FamilyMixed otherwise), derives
// an edit for the incremental oracle, and runs the check.
func Check(inv Invariant, seed uint64) *Violation {
	switch inv {
	case InvSound:
		return CheckSoundness(Generate(seed, FamilySound))
	case InvIncremental:
		g := Generate(seed, FamilyMixed)
		return CheckIncremental(g, ProposeEdit(g, newRNG(seed^0xed17)))
	case InvResume:
		return CheckResume(Generate(seed, FamilyMixed), "")
	case InvEngines:
		return CheckEngines(Generate(seed, FamilyMixed))
	case InvHarden:
		return CheckHarden(Generate(seed, FamilyMixed))
	default:
		panic(fmt.Sprintf("diffcheck: unknown invariant %q", inv))
	}
}

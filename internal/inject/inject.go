// Package inject runs error-injection experiments: it replays the traced
// execution up to a site, flips one register bit, resumes execution, and
// classifies the outcome.
//
// Two experiment shapes exist, mirroring the paper. The *monolithic*
// experiment (the Approxilyzer-only baseline) resumes until the program
// terminates and compares the final outputs. The *per-section* experiment
// (FastFlip) resumes until the injected section instance ends and compares
// that section's outputs plus its live state.
//
// Analysis cost is accounted in simulated instructions, the dominant and
// parallelizable part of the paper's core-hours (§6.2). Stats.SimInstrs is
// the paper's per-experiment cost model (checkpoint to experiment end);
// Stats.CleanInstrs/FaultyInstrs split what the replay engine *actually*
// simulates. The default engine schedules a campaign's experiments in
// dynamic-index order, advances one rolling clean-cursor machine per
// worker, and forks each experiment off the cursor with a journal-based
// delta restore — so a shared clean prefix is simulated once per worker
// range instead of once per experiment, and restoring a fork undoes only
// the memory words the faulty run touched. Outcomes are bit-identical to
// the legacy checkpoint-replay engine (Injector.Legacy), which is kept for
// equivalence testing.
package inject

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"fastflip/internal/isa"
	"fastflip/internal/metrics"
	"fastflip/internal/sites"
	"fastflip/internal/trace"
	"fastflip/internal/vm"
)

// TimeoutFactor is the paper's rule (§5.6): an execution whose length
// exceeds 5x the nominal runtime counts as a detected timeout.
const TimeoutFactor = 5

// Stats accumulates analysis cost.
type Stats struct {
	Experiments int
	// SimInstrs is the accounted analysis cost under the paper's model:
	// each experiment costs section-checkpoint-to-end, whatever the engine
	// actually replayed. Tables and speedups are computed from this, so
	// they stay comparable across engine versions.
	SimInstrs uint64
	// CleanInstrs counts the clean-prefix instructions the engine actually
	// simulated (cursor advances, checkpoint-to-site replays); FaultyInstrs
	// counts the instructions executed after a flip. Their sum is the real
	// engine work, ≤ SimInstrs under the cursor scheduler.
	CleanInstrs  uint64
	FaultyInstrs uint64
	// ElidedExperiments counts the experiments resolved by the static
	// masking tier without any simulation (included in Experiments): the
	// flip was proven dead, so the clean outcome was recorded at the exact
	// SimInstrs cost a scalar run would have accounted. ElidedInstrs is
	// that accounted-but-never-simulated cost (included in SimInstrs);
	// elided experiments contribute zero CleanInstrs/FaultyInstrs.
	ElidedExperiments int
	ElidedInstrs      uint64
	// Deprecated: BatchExperiments is always zero. It counted experiments
	// run by the lockstep batch tier, which has been removed; the field
	// stays only because the benchmark module (perfbench) still reads it.
	BatchExperiments int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Experiments += other.Experiments
	s.SimInstrs += other.SimInstrs
	s.CleanInstrs += other.CleanInstrs
	s.FaultyInstrs += other.FaultyInstrs
	s.ElidedExperiments += other.ElidedExperiments
	s.ElidedInstrs += other.ElidedInstrs
}

// Injector runs experiments against one recorded trace.
type Injector struct {
	T *trace.Trace
	// Workers is the number of parallel experiment goroutines;
	// 0 means GOMAXPROCS.
	Workers int
	// Legacy selects the pre-cursor replay engine: every experiment
	// restores a full checkpoint copy and replays the clean prefix itself.
	// Outcomes are identical; only the engine cost differs. Kept for
	// equivalence tests and engine benchmarks.
	Legacy bool
	// PanicHook, when non-nil, is invoked at the start of every experiment
	// attempt with the class index and the 1-based attempt number. It is a
	// test seam: chaos tests panic from it to exercise the supervision
	// path. Production leaves it nil.
	PanicHook func(class, attempt int)

	mu           sync.Mutex
	poisoned     []Poison
	panicRetries int
}

func (inj *Injector) workers() int {
	if inj.Workers > 0 {
		return inj.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// prepare replays m to just before dynamic instruction dyn and applies the
// flip dictated by the site (the legacy per-experiment path).
func (inj *Injector) prepare(m *vm.Machine, site sites.Site, maxDyn uint64) error {
	seed, _ := inj.T.ReplaySeed(site.Dyn)
	m.RestoreFrom(seed)
	m.MaxDyn = maxDyn
	if ev := m.RunUntilDyn(site.Dyn); ev.Kind != vm.EvNone {
		return fmt.Errorf("inject: clean prefix to dyn %d ended with %v", site.Dyn, ev.Kind)
	}
	_, err := applyFlip(m, site)
	return err
}

// applyFlip injects the site's burst into the positioned machine m (which
// must sit just before dynamic instruction site.Dyn): source operands flip
// before the instruction reads them, destination operands flip after it
// writes. It returns the dynamic index at which faulty execution begins.
func applyFlip(m *vm.Machine, site sites.Site) (uint64, error) {
	width := int(site.Width)
	if width < 1 {
		width = 1
	}
	flip := func() {
		for b := 0; b < width; b++ {
			bit := uint(site.Bit) + uint(b)
			if bit >= 64 {
				break
			}
			if site.Operand.Class == isa.RegFloat {
				m.FlipFloat(int(site.Operand.Reg), bit)
			} else {
				m.FlipInt(int(site.Operand.Reg), bit)
			}
		}
	}
	if site.Operand.Role == isa.OperandDst {
		if ev := m.Step(); ev.Kind != vm.EvNone {
			return m.Dyn, fmt.Errorf("inject: instruction at dyn %d raised %v in clean flow", site.Dyn, ev.Kind)
		}
	}
	flip()
	return m.Dyn, nil
}

// sectionLimit is the per-section timeout rule: the section may run up to
// 5x its nominal length (§5.6) plus slack for the epilogue.
func sectionLimit(inst *trace.Instance) uint64 {
	return inst.BegDyn + 1 + TimeoutFactor*inst.Len() + 64
}

// Monolithic runs one whole-program experiment for site and classifies the
// effect on the program's final outputs. The returned cost is the accounted
// SimInstrs of the experiment.
func (inj *Injector) Monolithic(m *vm.Machine, site sites.Site) (metrics.Outcome, uint64) {
	t := inj.T
	if err := inj.prepare(m, site, TimeoutFactor*t.TotalDyn); err != nil {
		panic(err) // clean replay cannot fail; a failure is a harness bug
	}
	out := inj.monolithicFinish(m)
	return out, m.Dyn - t.NearestCheckpointDyn(site.Dyn)
}

// crashOutcome classifies a crashed machine: a vm.CrashTrap is a hardening
// detector firing (DetectTrap), every other crash kind is an ordinary
// detected crash. Both are Detected in the paper's taxonomy; the reason
// split lets the hardening remeasure report detector coverage.
func crashOutcome(m *vm.Machine) metrics.Outcome {
	reason := metrics.DetectCrash
	if m.Crash == vm.CrashTrap {
		reason = metrics.DetectTrap
	}
	return metrics.Outcome{Kind: metrics.Detected, Reason: reason}
}

// monolithicFinish resumes a prepared machine to termination and classifies
// the effect on the final outputs.
func (inj *Injector) monolithicFinish(m *vm.Machine) metrics.Outcome {
	switch ev := m.Run(); ev.Kind {
	case vm.EvCrash:
		return crashOutcome(m)
	case vm.EvTimeout:
		return metrics.Outcome{Kind: metrics.Detected, Reason: metrics.DetectTimeout}
	}
	return metrics.Compare(inj.T.Prog.FinalOutputs, inj.T.Final, m)
}

// Section runs one per-section experiment for a site inside inst and
// classifies the effect on the instance's outputs and live state.
func (inj *Injector) Section(m *vm.Machine, inst *trace.Instance, site sites.Site) (metrics.Outcome, uint64) {
	if err := inj.prepare(m, site, sectionLimit(inst)); err != nil {
		panic(err)
	}
	out := inj.sectionFinish(m, inst)
	return out, m.Dyn - inj.T.NearestCheckpointDyn(site.Dyn)
}

// sectionFinish resumes a prepared machine until the injected instance ends
// and classifies the section-level outcome.
func (inj *Injector) sectionFinish(m *vm.Machine, inst *trace.Instance) metrics.Outcome {
	for {
		ev := m.Step()
		switch ev.Kind {
		case vm.EvSecEnd:
			if ev.Sec != inst.Sec {
				// Control flow escaped into a different section: the
				// instance never produced its outputs. Conservatively
				// SDC-Bad (§4.9, side effects).
				return conservativeSDC(len(inst.IO.Outputs))
			}
			out := metrics.Compare(inst.IO.Outputs, inst.Exit, m)
			if out.Kind != metrics.Detected && liveSideEffect(inst, m) {
				return conservativeSDC(len(inst.IO.Outputs))
			}
			return out
		case vm.EvHalt:
			// The program terminated before the section completed:
			// corrupted control flow skipped the section's remainder.
			return conservativeSDC(len(inst.IO.Outputs))
		case vm.EvCrash:
			return crashOutcome(m)
		case vm.EvTimeout:
			return metrics.Outcome{Kind: metrics.Detected, Reason: metrics.DetectTimeout}
		}
	}
}

// SectionCoRun runs one per-section experiment and then lets execution
// continue to program termination, classifying both the section-level
// outcome and the end-to-end outcome in a single simulation. This is the
// paper's simultaneous baseline co-run (§4.10): it gives FastFlip
// ground-truth labels for target adjustment without a separate monolithic
// campaign, at the cost of longer experiments.
func (inj *Injector) SectionCoRun(m *vm.Machine, inst *trace.Instance, site sites.Site) (sec, fin metrics.Outcome, cost uint64) {
	if err := inj.prepare(m, site, sectionLimit(inst)); err != nil {
		panic(err)
	}
	sec, fin = inj.coRunFinish(m, inst)
	return sec, fin, m.Dyn - inj.T.NearestCheckpointDyn(site.Dyn)
}

// coRunFinish resumes a prepared machine through the injected instance and
// on to program termination, classifying both levels.
func (inj *Injector) coRunFinish(m *vm.Machine, inst *trace.Instance) (sec, fin metrics.Outcome) {
	t := inj.T
	secDone := false
	for {
		ev := m.Step()
		switch ev.Kind {
		case vm.EvSecEnd:
			if secDone {
				continue
			}
			if ev.Sec != inst.Sec {
				sec = conservativeSDC(len(inst.IO.Outputs))
			} else {
				sec = metrics.Compare(inst.IO.Outputs, inst.Exit, m)
				if sec.Kind != metrics.Detected && liveSideEffect(inst, m) {
					sec = conservativeSDC(len(inst.IO.Outputs))
				}
			}
			secDone = true
			// Past the section, the whole-program timeout rule applies.
			m.MaxDyn = TimeoutFactor * t.TotalDyn
		case vm.EvHalt:
			if !secDone {
				sec = conservativeSDC(len(inst.IO.Outputs))
			}
			fin = metrics.Compare(t.Prog.FinalOutputs, t.Final, m)
			return sec, fin
		case vm.EvCrash:
			det := crashOutcome(m)
			if !secDone {
				sec = det
			}
			return sec, det
		case vm.EvTimeout:
			det := metrics.Outcome{Kind: metrics.Detected, Reason: metrics.DetectTimeout}
			if !secDone {
				sec = det
			}
			return sec, det
		}
	}
}

// RunSectionCoRun injects every class pilot within inst with the co-run
// experiment shape, returning parallel slices of section-level and
// end-to-end outcomes. Cancelling ctx stops the campaign between
// experiments; the returned outcomes are then partial and must be
// discarded (check ctx.Err after the call).
func (inj *Injector) RunSectionCoRun(ctx context.Context, inst *trace.Instance, classes []*sites.Class) (secs, fins []metrics.Outcome, stats Stats) {
	return inj.RunSectionCoRunResume(ctx, inst, classes, CampaignHooks{})
}

// RunSectionCoRunResume is RunSectionCoRun with resume hooks: classes
// marked in hooks.Skip are not injected (their outcome slots stay zero for
// the caller to fill from recovered records) and hooks.Record observes
// each completed experiment for write-ahead logging.
func (inj *Injector) RunSectionCoRunResume(ctx context.Context, inst *trace.Instance, classes []*sites.Class, hooks CampaignHooks) (secs, fins []metrics.Outcome, stats Stats) {
	fins = make([]metrics.Outcome, len(classes))
	if rec := hooks.Record; rec != nil {
		// Attach the co-run end-to-end outcome: fins[i] is written by the
		// same worker in finish before the engine invokes Record.
		hooks.Record = func(i int, out metrics.Outcome, _ *metrics.Outcome, cost Stats) {
			rec(i, out, &fins[i], cost)
		}
	}
	secs, stats = inj.runAll(ctx, classes, experiment{
		limit: func(sites.Site) uint64 { return sectionLimit(inst) },
		finish: func(m *vm.Machine, i int, _ sites.Site) metrics.Outcome {
			sec, fin := inj.coRunFinish(m, inst)
			fins[i] = fin
			return sec
		},
		conserv: func(i int) metrics.Outcome {
			fins[i] = conservativeSDC(len(inj.T.Prog.FinalOutputs))
			return conservativeSDC(len(inst.IO.Outputs))
		},
		masked: func(i int) metrics.Outcome {
			fins[i] = metrics.Outcome{Kind: metrics.Masked}
			return metrics.Outcome{Kind: metrics.Masked}
		},
		cleanEnd: inj.T.Final.Dyn,
		hooks:    hooks,
	})
	return secs, fins, stats
}

// conservativeSDC is the +Inf-magnitude outcome used when a section-level
// side effect prevents bounding the corruption: it is SDC-Bad for any ε.
func conservativeSDC(outputs int) metrics.Outcome {
	mags := make([]float64, outputs)
	for i := range mags {
		mags[i] = math.Inf(1)
	}
	return metrics.Outcome{Kind: metrics.SDC, Magnitudes: mags}
}

// liveSideEffect reports whether any live-declared word outside the
// instance's declared outputs differs from the clean exit state.
func liveSideEffect(inst *trace.Instance, m *vm.Machine) bool {
	for _, lb := range inst.IO.Live {
	word:
		for i := 0; i < lb.Len; i++ {
			addr := lb.Addr + i
			for _, ob := range inst.IO.Outputs {
				if addr >= ob.Addr && addr < ob.Addr+ob.Len {
					continue word
				}
			}
			if m.Mem[addr] != inst.Exit.Mem[addr] {
				return true
			}
		}
	}
	return false
}

// RunMonolithic injects the pilot of every class and returns per-class
// outcomes (indexed like classes) plus cost statistics. Cancelling ctx
// stops the campaign between experiments; the returned outcomes are then
// partial and must be discarded (check ctx.Err after the call).
func (inj *Injector) RunMonolithic(ctx context.Context, classes []*sites.Class) ([]metrics.Outcome, Stats) {
	return inj.runAll(ctx, classes, experiment{
		limit:    func(sites.Site) uint64 { return TimeoutFactor * inj.T.TotalDyn },
		finish:   func(m *vm.Machine, _ int, _ sites.Site) metrics.Outcome { return inj.monolithicFinish(m) },
		conserv:  func(int) metrics.Outcome { return conservativeSDC(len(inj.T.Prog.FinalOutputs)) },
		masked:   func(int) metrics.Outcome { return metrics.Outcome{Kind: metrics.Masked} },
		cleanEnd: inj.T.Final.Dyn,
	})
}

// RunSection injects the pilot of every class within inst and returns
// per-class outcomes plus cost statistics. Cancellation behaves as in
// RunMonolithic.
func (inj *Injector) RunSection(ctx context.Context, inst *trace.Instance, classes []*sites.Class) ([]metrics.Outcome, Stats) {
	return inj.RunSectionResume(ctx, inst, classes, CampaignHooks{})
}

// RunSectionResume is RunSection with resume hooks; see
// RunSectionCoRunResume for their semantics.
func (inj *Injector) RunSectionResume(ctx context.Context, inst *trace.Instance, classes []*sites.Class, hooks CampaignHooks) ([]metrics.Outcome, Stats) {
	return inj.runAll(ctx, classes, experiment{
		limit:    func(sites.Site) uint64 { return sectionLimit(inst) },
		finish:   func(m *vm.Machine, _ int, _ sites.Site) metrics.Outcome { return inj.sectionFinish(m, inst) },
		conserv:  func(int) metrics.Outcome { return conservativeSDC(len(inst.IO.Outputs)) },
		masked:   func(int) metrics.Outcome { return metrics.Outcome{Kind: metrics.Masked} },
		cleanEnd: inst.Exit.Dyn,
		hooks:    hooks,
	})
}

// experiment is the campaign-specific half of an injection: the timeout
// limit for a site and the classification of a machine that is already
// positioned at the site with the flip applied.
type experiment struct {
	limit  func(site sites.Site) uint64
	finish func(m *vm.Machine, i int, site sites.Site) metrics.Outcome
	// conserv yields the conservative worst-case outcome for class i, used
	// to fill the slot of a quarantined (twice-panicked) experiment so the
	// downstream analysis stays sound. Nil means conservativeSDC(0).
	conserv func(i int) metrics.Outcome
	// masked yields the outcome of a statically-proven-dead flip for class
	// i — by construction the clean outcome of this experiment shape. Nil
	// disables the elision tier for this campaign shape.
	masked func(i int) metrics.Outcome
	// cleanEnd is the clean dynamic count at which this experiment shape
	// terminates (section exit or program end); an elided experiment is
	// accounted SimInstrs = cleanEnd − its checkpoint, exactly what a
	// scalar run of the proven-masked flip would have cost.
	cleanEnd uint64
	hooks    CampaignHooks
}

// conservative returns the quarantine outcome for class i.
func (e *experiment) conservative(i int) metrics.Outcome {
	if e.conserv == nil {
		return conservativeSDC(0)
	}
	return e.conserv(i)
}

// ShardRange restricts a campaign to a contiguous slice of the canonical
// dyn-sorted experiment order (see DynOrder): positions [Lo, Hi). It is
// the scheduling seam distributed campaigns shard on — a coordinator
// hands each remote worker one range, and because the order is derived
// deterministically from the class enumeration, coordinator and workers
// agree on what every position means without exchanging class lists.
type ShardRange struct {
	Lo, Hi int
}

// CampaignHooks carries the optional resume/WAL hooks of a campaign.
type CampaignHooks struct {
	// Skip marks classes whose outcome is already known (recovered from a
	// write-ahead log); they are excluded from scheduling. The filtered
	// experiment list is still dyn-sorted and contiguously partitioned, so
	// the clean-cursor invariant (each worker's cursor only moves forward)
	// holds unchanged. Nil or shorter-than-classes entries mean "run".
	Skip []bool
	// Range, when non-nil, restricts the campaign to the classes at
	// positions [Lo, Hi) of the canonical dyn-sorted order. Skip applies
	// on top of the range, so a shard re-lease can exclude the experiments
	// an earlier lease already delivered. Positions outside the range are
	// never scheduled and their outcome slots stay zero.
	Range *ShardRange
	// Record, when non-nil, observes each completed experiment: the class
	// index, its outcome(s) (fin is the co-run end-to-end outcome, nil
	// otherwise), and the experiment's accounted cost share (cursor advance
	// plus flip plus faulty suffix; cost.Experiments is 1). Workers call it
	// concurrently and before the campaign returns, which is exactly what a
	// write-ahead append needs. Per-experiment costs sum to the campaign
	// Stats.
	Record func(i int, out metrics.Outcome, fin *metrics.Outcome, cost Stats)
	// Poison, when non-nil, observes each quarantined class (an experiment
	// that panicked twice on fresh machines) so the campaign can log it
	// durably. A poisoned class is NOT delivered to Record: its outcome is
	// the conservative fill, not a measured one, and a resumed campaign
	// must re-execute the class rather than trust it.
	Poison func(p Poison)
	// Shard, when non-nil, observes the provenance of every remote shard
	// stream a distributed coordinator merged into the campaign (worker
	// ID, lease epoch, dyn-order range, record count). The local engine
	// never invokes it; campaigns with a WAL append a provenance record
	// per call so merged segments stay attributable.
	Shard func(s WALShard)
}

// skips reports whether class index i is marked done.
func (h *CampaignHooks) skips(i int) bool {
	return i < len(h.Skip) && h.Skip[i]
}

// scheduled returns the class indices this campaign actually runs, in the
// canonical dyn-sorted order: the shard range restricts by position first,
// then the skip vector drops already-resolved classes.
func (h *CampaignHooks) scheduled(classes []*sites.Class) []int {
	full := DynOrder(classes)
	lo, hi := 0, len(full)
	if h.Range != nil {
		if lo = h.Range.Lo; lo < 0 {
			lo = 0
		}
		if hi = h.Range.Hi; hi > len(full) {
			hi = len(full)
		}
		if lo > hi {
			lo = hi
		}
	}
	order := make([]int, 0, hi-lo)
	for _, ci := range full[lo:hi] {
		if !h.skips(ci) {
			order = append(order, ci)
		}
	}
	return order
}

// DynOrder returns the canonical experiment order of a campaign: the
// class indices sorted by pilot dynamic index, ties broken by class
// index. It depends only on the class enumeration, so a coordinator and
// its remote workers — each enumerating classes from an independently
// recorded (deterministic) trace — compute identical orders and can name
// shard ranges by position alone.
func DynOrder(classes []*sites.Class) []int {
	order := make([]int, len(classes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := classes[order[a]].Pilot(), classes[order[b]].Pilot()
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	return order
}

// ConservativeSDC returns the +Inf-magnitude SDC outcome over the given
// number of output buffers — the fill used for quarantined experiments.
// Exported so a distributed coordinator can apply the same conservative
// semantics to a poison record streamed back from a remote worker.
func ConservativeSDC(outputs int) metrics.Outcome {
	return conservativeSDC(outputs)
}

// siteOf builds the pilot injection site of a class.
func siteOf(c *sites.Class) sites.Site {
	return sites.Site{
		Dyn:     c.Pilot(),
		Operand: isa.Operand{Role: c.Key.Role, Class: c.Class, Reg: c.Reg},
		Bit:     c.Key.Bit,
		Width:   c.Width,
	}
}

// elidePass resolves the classes whose pilot flip the static masking tier
// proved dead (sites.Class.Elided) without simulating anything: the faulty
// architectural state is bit-identical to the clean run by construction, so
// the clean outcome of the experiment shape is recorded at the exact
// SimInstrs cost a scalar experiment would have accounted. It returns the
// surviving schedule (filtered in place) plus the stats of the elided
// population. Running before the worker split keeps each worker's chunk
// contiguous in dyn order, so elision composes with sharding and resume.
func (inj *Injector) elidePass(classes []*sites.Class, order []int, exp *experiment, outcomes []metrics.Outcome) ([]int, Stats) {
	if exp.masked == nil {
		return order, Stats{}
	}
	var stats Stats
	rest := order[:0]
	for _, i := range order {
		if !classes[i].Elided {
			rest = append(rest, i)
			continue
		}
		outcomes[i] = exp.masked(i)
		acct := exp.cleanEnd - inj.T.NearestCheckpointDyn(classes[i].Pilot())
		cost := Stats{Experiments: 1, ElidedExperiments: 1, SimInstrs: acct, ElidedInstrs: acct}
		stats.Add(cost)
		if exp.hooks.Record != nil {
			exp.hooks.Record(i, outcomes[i], nil, cost)
		}
	}
	return rest, stats
}

// runAll distributes one experiment per class over the worker pool. Each
// worker checks ctx between experiments, so a cancelled campaign stops
// within one in-flight experiment per worker. Stats count only the
// experiments actually run.
//
// The default engine sorts the pilots by dynamic index, hands each worker
// one contiguous dyn range, and replays the clean execution once per range
// behind a rolling cursor; Legacy replays checkpoint-to-site per
// experiment. Both engines produce identical outcomes.
func (inj *Injector) runAll(ctx context.Context, classes []*sites.Class, exp experiment) ([]metrics.Outcome, Stats) {
	if inj.Legacy {
		return inj.runAllLegacy(ctx, classes, exp)
	}
	outcomes := make([]metrics.Outcome, len(classes))
	if len(classes) == 0 {
		return outcomes, Stats{}
	}

	// Dyn-sorted experiment order, contiguously partitioned so each
	// worker's cursor only ever moves forward. The shard range (if any)
	// selects positions of the canonical order first; classes recovered
	// from a WAL are then filtered out: the remainder is still dyn-sorted,
	// so the contiguous-range invariant survives both sharding and resume.
	order := exp.hooks.scheduled(classes)
	order, elided := inj.elidePass(classes, order, &exp, outcomes)
	if len(order) == 0 {
		return outcomes, elided
	}

	nw := inj.workers()
	if nw > len(order) {
		nw = len(order)
	}
	statsPer := make([]Stats, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		lo := w * len(order) / nw
		hi := (w + 1) * len(order) / nw
		wg.Add(1)
		go func(w int, chunk []int) {
			defer wg.Done()
			statsPer[w] = inj.runRange(ctx, classes, chunk, exp, outcomes)
		}(w, order[lo:hi])
	}
	wg.Wait()

	stats := elided
	for _, s := range statsPer {
		stats.Add(s)
	}
	return outcomes, stats
}

// runRange runs one worker's contiguous dyn-sorted chunk of experiments.
// The cursor machine advances through the clean execution exactly once;
// every experiment forks off it with a journal and is reverted by undoing
// the words it wrote.
//
// Each experiment attempt runs under panic supervision: a panic discards
// the (possibly wedged) cursor and fork machines, rebuilds both from the
// replay seed, and retries the experiment once. A second panic
// quarantines the class as a Poison with the conservative outcome and the
// chunk moves on. The accounted cost shares are captured against the
// cursor position before the first attempt, so a retried-but-successful
// experiment reports exactly the Stats a panic-free run would — retries
// change real engine work, never the accounting.
func (inj *Injector) runRange(ctx context.Context, classes []*sites.Class, chunk []int, exp experiment, outcomes []metrics.Outcome) Stats {
	t := inj.T
	var stats Stats

	seed, _ := t.ReplaySeed(classes[chunk[0]].Pilot())
	cur := seed.Clone() // rolling clean cursor, only ever advances
	em := cur.Clone()   // experiment machine, forked from the cursor

	for _, i := range chunk {
		if ctx.Err() != nil {
			break
		}
		site := siteOf(classes[i])

		// Per-experiment cost share; the cursor advance is attributed to the
		// experiment that triggered it so shares sum to the campaign Stats.
		// Captured before the first attempt for panic-retry neutrality.
		var cleanShare uint64
		if site.Dyn > cur.Dyn {
			cleanShare = site.Dyn - cur.Dyn
		}

		run := func(attempt int) Stats {
			if inj.PanicHook != nil {
				inj.PanicHook(i, attempt)
			}
			// Advance the shared clean prefix once, mirroring the delta
			// into the experiment machine.
			if site.Dyn > cur.Dyn {
				cur.BeginJournal()
				if ev := cur.RunUntilDyn(site.Dyn); ev.Kind != vm.EvNone {
					panic(fmt.Errorf("inject: clean cursor to dyn %d ended with %v", site.Dyn, ev.Kind))
				}
				if cur.ReplayJournalInto(em) {
					em.CopyScalarsFrom(cur)
				} else {
					em.RestoreFrom(cur)
				}
				cur.EndJournal()
			}

			// Fork: em mirrors the clean state at site.Dyn. Run the faulty
			// suffix under a journal, classify, then undo only what it
			// wrote.
			em.MaxDyn = exp.limit(site)
			em.BeginJournal()
			flipDyn, err := applyFlip(em, site)
			if err != nil {
				panic(err)
			}
			outcomes[i] = exp.finish(em, i, site)

			expStats := Stats{Experiments: 1}
			expStats.SimInstrs += em.Dyn - t.NearestCheckpointDyn(site.Dyn)
			expStats.CleanInstrs += cleanShare + (flipDyn - site.Dyn)
			expStats.FaultyInstrs += em.Dyn - flipDyn

			if em.UndoJournal() {
				em.CopyScalarsFrom(cur)
			} else {
				em.RestoreFrom(cur)
			}
			return expStats
		}

		var expStats Stats
		poisoned := false
		for attempt := 1; ; attempt++ {
			st, rec := runSupervised(func() *vm.Machine { return em }, func() Stats { return run(attempt) })
			if rec == nil {
				expStats = st
				break
			}
			// The panic may have left either machine mid-journal or
			// half-restored; both are rebuilt from the seed before any
			// further use.
			seed, _ := t.ReplaySeed(site.Dyn)
			cur = seed.Clone()
			em = cur.Clone()
			if attempt == 1 {
				inj.notePanicRetry()
				continue
			}
			p := Poison{Class: i, Key: classes[i].Key, Attempts: attempt, MachineFP: rec.fp, Stack: rec.stack}
			inj.notePoison(p)
			outcomes[i] = exp.conservative(i)
			expStats = Stats{Experiments: 1}
			if exp.hooks.Poison != nil {
				exp.hooks.Poison(p)
			}
			poisoned = true
			break
		}
		stats.Add(expStats)
		if !poisoned && exp.hooks.Record != nil {
			exp.hooks.Record(i, outcomes[i], nil, expStats)
		}
	}
	return stats
}

// runAllLegacy is the pre-cursor engine: every experiment restores a full
// checkpoint copy and replays its own clean prefix.
func (inj *Injector) runAllLegacy(ctx context.Context, classes []*sites.Class, exp experiment) ([]metrics.Outcome, Stats) {
	t := inj.T
	outcomes := make([]metrics.Outcome, len(classes))
	order := exp.hooks.scheduled(classes)
	order, stats := inj.elidePass(classes, order, &exp, outcomes)
	var next atomic.Uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	nw := inj.workers()
	if nw > len(order) {
		nw = len(order)
	}
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := t.Start.Clone()
			var local Stats
			for {
				if ctx.Err() != nil {
					break
				}
				pos := next.Add(1) - 1
				if pos >= uint64(len(order)) {
					break
				}
				i := uint64(order[pos])
				site := siteOf(classes[i])
				_, replayDyn := t.ReplaySeed(site.Dyn)

				// Same supervision contract as runRange: one retry on a
				// fresh machine, then quarantine. prepare restores the
				// checkpoint itself, so the rebuild only matters when the
				// panic corrupted the machine's buffers.
				var expStats Stats
				poisoned := false
				for attempt := 1; ; attempt++ {
					st, rec := runSupervised(func() *vm.Machine { return m }, func() Stats {
						if inj.PanicHook != nil {
							inj.PanicHook(int(i), attempt)
						}
						if err := inj.prepare(m, site, exp.limit(site)); err != nil {
							panic(err)
						}
						flipDyn := m.Dyn
						outcomes[i] = exp.finish(m, int(i), site)
						return Stats{
							Experiments:  1,
							SimInstrs:    m.Dyn - t.NearestCheckpointDyn(site.Dyn),
							CleanInstrs:  flipDyn - replayDyn,
							FaultyInstrs: m.Dyn - flipDyn,
						}
					})
					if rec == nil {
						expStats = st
						break
					}
					m = t.Start.Clone()
					if attempt == 1 {
						inj.notePanicRetry()
						continue
					}
					p := Poison{Class: int(i), Key: classes[i].Key, Attempts: attempt, MachineFP: rec.fp, Stack: rec.stack}
					inj.notePoison(p)
					outcomes[i] = exp.conservative(int(i))
					expStats = Stats{Experiments: 1}
					if exp.hooks.Poison != nil {
						exp.hooks.Poison(p)
					}
					poisoned = true
					break
				}
				local.Add(expStats)
				if !poisoned && exp.hooks.Record != nil {
					exp.hooks.Record(int(i), outcomes[i], nil, expStats)
				}
			}
			mu.Lock()
			stats.Add(local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return outcomes, stats
}

package core

import (
	"fmt"
	"sort"
	"time"

	"fastflip/internal/prog"
)

// Summary is the machine-readable digest of one analysis — the shape
// returned by the ffserved JSON API and by `fastflip -json`, so CLI and
// service outputs are interchangeable. All cost figures are in simulated
// instructions; magnitudes beyond ε classify as SDC-Bad.
type Summary struct {
	Bench   string  `json:"bench,omitempty"`
	Variant string  `json:"variant,omitempty"`
	Program string  `json:"program"`
	Epsilon float64 `json:"epsilon"`

	SiteCount int    `json:"site_count"`
	DynInstrs uint64 `json:"dyn_instrs"`
	Instances int    `json:"instances"`
	Reused    int    `json:"reused_instances"`
	Injected  int    `json:"injected_instances"`

	StaticExecuted int `json:"static_executed"`
	StaticTotal    int `json:"static_total"`

	FFExperiments int           `json:"ff_experiments"`
	FFSimInstrs   uint64        `json:"ff_sim_instrs"`
	FFWall        time.Duration `json:"ff_wall_ns"`
	// FFCleanInstrs/FFFaultyInstrs split the injection engine's actual
	// simulated work into clean-prefix replay and post-flip execution.
	// FFSimInstrs above remains the paper's accounted cost model (per
	// experiment, section checkpoint to experiment end), so the two clean
	// figures differ under the cursor replay engine.
	FFCleanInstrs  uint64 `json:"ff_clean_instrs"`
	FFFaultyInstrs uint64 `json:"ff_faulty_instrs"`

	// ElidedExperiments counts experiments the static masking tier proved
	// Masked and recorded without simulating (included in FFExperiments);
	// ElidedSimInstrs is their accounted share of FFSimInstrs. Executed
	// experiments = FFExperiments − ElidedExperiments.
	ElidedExperiments int    `json:"elided_experiments,omitempty"`
	ElidedSimInstrs   uint64 `json:"elided_sim_instrs,omitempty"`
	// Deprecated: BatchedExperiments is always zero, and so absent from
	// JSON. It counted experiments run by the lockstep batch tier, which
	// has been removed; it stays only because the benchmark module
	// (perfbench) still reads it.
	BatchedExperiments int `json:"batched_experiments,omitempty"`
	// Deprecated: BatchReplicasAvg is always zero, like BatchedExperiments.
	BatchReplicasAvg float64 `json:"batch_replicas_avg,omitempty"`

	// ResumedExperiments counts experiments recovered from a write-ahead
	// campaign log instead of re-executed (included in FFExperiments).
	// WALNotes records non-fatal WAL anomalies (torn tails truncated,
	// lock conflicts).
	ResumedExperiments int      `json:"resumed_experiments,omitempty"`
	WALNotes           []string `json:"wal_notes,omitempty"`
	// WALDegraded marks a campaign whose write-ahead log hit a persistent
	// write failure: the analysis completed, but at least one section's
	// results are memory-only and a resume will re-inject that section.
	WALDegraded bool `json:"wal_degraded,omitempty"`
	// Poisoned lists experiments quarantined by the panic supervisor
	// (panicked twice on fresh machines); their outcomes are the
	// conservative SDC-Bad fill, so protection analysis stays sound.
	Poisoned []PoisonSummary `json:"poisoned,omitempty"`
	// PanicRetries counts experiment attempts that panicked once and
	// succeeded on retry. Retries are cost-neutral: the accounted figures
	// above match a panic-free run exactly.
	PanicRetries int `json:"panic_retries,omitempty"`
	// RemoteExperiments counts experiments executed by remote shard
	// workers under a distributed coordinator (included in FFExperiments);
	// ShardsMerged counts the shard streams merged. Both are zero for a
	// purely local campaign — distribution changes where experiments ran,
	// never the outcome fields above.
	RemoteExperiments int `json:"remote_experiments,omitempty"`
	ShardsMerged      int `json:"shards_merged,omitempty"`
	// HedgedDispatches counts straggler shard leases the coordinator
	// re-dispatched to an idle worker while the original kept streaming;
	// Releases counts finished dispatches that handed unresolved work back
	// to the lease queue. Resilience accounting only — like the fields
	// above they never change the outcome fields.
	HedgedDispatches int `json:"hedged_dispatches,omitempty"`
	Releases         int `json:"releases,omitempty"`

	// SharedHits counts section lookups this job resolved from the shared
	// cross-process outcome tier, SharedMisses those the tier could not
	// serve (both zero without a shared tier; included in Reused/Injected
	// respectively). Like the wall-clock and work-split fields, they
	// describe where this run's results came from, not what they are.
	SharedHits   int `json:"shared_hits,omitempty"`
	SharedMisses int `json:"shared_misses,omitempty"`

	// Protection-loop figures (Analyzer.Harden), present only when the job
	// asked for hardening: the knapsack selection was applied as
	// duplication-and-compare detectors and the hardened program was
	// re-injected. ResidualSDC is its measured SDC-Bad site count,
	// PredictedResidual the mechanism-aware bound derived from the original
	// campaign, DetectorCoverage the fraction of tested bad sites at
	// protected instructions the detectors removed, DetectorTriggers the
	// hardened sites caught by a detector trap, and ProtectionOverhead the
	// dynamic instruction overhead of the detectors. HardenedAsm carries
	// the hardened program's disassembly when the caller requested it.
	HardenedTarget     float64 `json:"hardened_target,omitempty"`
	ResidualSDC        int     `json:"residual_sdc,omitempty"`
	PredictedResidual  int     `json:"predicted_residual,omitempty"`
	DetectorCoverage   float64 `json:"detector_coverage,omitempty"`
	DetectorTriggers   int     `json:"detector_triggers,omitempty"`
	ProtectionOverhead float64 `json:"protection_overhead,omitempty"`
	HardenedAsm        string  `json:"hardened_asm,omitempty"`

	Outcomes OutcomeStats `json:"outcomes"`

	Baseline *BaselineSummary `json:"baseline,omitempty"`
	Targets  []TargetSummary  `json:"targets,omitempty"`
}

// PoisonSummary is the serializable digest of one quarantined experiment:
// which class panicked twice, a fingerprint of the machine the second
// panic left behind, and the captured stack for post-mortem debugging.
type PoisonSummary struct {
	Class     string `json:"class"`
	Attempts  int    `json:"attempts"`
	MachineFP string `json:"machine_fp"`
	Stack     string `json:"stack"`
}

// BaselineSummary digests the monolithic baseline campaign.
type BaselineSummary struct {
	Experiments  int           `json:"experiments"`
	SimInstrs    uint64        `json:"sim_instrs"`
	CleanInstrs  uint64        `json:"clean_instrs"`
	FaultyInstrs uint64        `json:"faulty_instrs"`
	Wall         time.Duration `json:"wall_ns"`
	// Elision telemetry, as in the FastFlip figures above.
	ElidedExperiments int    `json:"elided_experiments,omitempty"`
	ElidedSimInstrs   uint64 `json:"elided_sim_instrs,omitempty"`
	// Deprecated: BatchedExperiments is always zero, as in Summary; it
	// stays only because the benchmark module (perfbench) still reads it.
	BatchedExperiments int `json:"batched_experiments,omitempty"`
	// Speedup is baseline cost over FastFlip cost (the paper's headline
	// ratio).
	Speedup float64 `json:"speedup"`
}

// TargetSummary digests one TargetEval for serialization, with the
// selected instructions rendered as stable strings.
type TargetSummary struct {
	Target       float64  `json:"target"`
	Adjusted     float64  `json:"adjusted"`
	Achieved     float64  `json:"achieved"`
	FFCostFrac   float64  `json:"ff_cost_frac"`
	BaseCostFrac float64  `json:"base_cost_frac"`
	CostDiff     float64  `json:"cost_diff"`
	ErrRange     float64  `json:"err_range"`
	WithinRange  bool     `json:"within_range"`
	Selected     []string `json:"selected"`
	SelectedCost int      `json:"selected_cost"`
}

// Summarize renders r (and, when non-nil, its target evaluations) as a
// Summary. evals may be nil when no baseline comparison ran.
func (r *Result) Summarize(eps float64, evals []TargetEval) *Summary {
	exec, total := r.Trace.Coverage()
	s := &Summary{
		Program:        r.Prog.Name,
		Epsilon:        eps,
		SiteCount:      r.SiteCount,
		DynInstrs:      r.Trace.TotalDyn,
		Instances:      len(r.Trace.Instances),
		Reused:         r.ReusedInstances,
		Injected:       r.InjectedInstances,
		StaticExecuted: exec,
		StaticTotal:    total,
		FFExperiments:  r.FFInject.Experiments,
		FFSimInstrs:    r.FFCost(),
		FFCleanInstrs:  r.FFInject.CleanInstrs,
		FFFaultyInstrs: r.FFInject.FaultyInstrs,
		FFWall:         r.FFWall,
		Outcomes:       r.FFOutcomeStats(eps),
	}
	s.ElidedExperiments = r.FFInject.ElidedExperiments
	s.ElidedSimInstrs = r.FFInject.ElidedInstrs
	s.ResumedExperiments = r.FFRecovered.Experiments
	s.WALNotes = append([]string(nil), r.WALNotes...)
	s.WALDegraded = r.WALDegraded
	s.PanicRetries = r.PanicRetries
	s.RemoteExperiments = r.RemoteExperiments
	s.ShardsMerged = r.ShardsMerged
	s.HedgedDispatches = r.HedgedDispatches
	s.Releases = r.Releases
	for _, p := range r.Poisoned {
		s.Poisoned = append(s.Poisoned, PoisonSummary{
			Class:     fmt.Sprintf("%v/%v.bit%d", p.Key.Static, p.Key.Role, p.Key.Bit),
			Attempts:  p.Attempts,
			MachineFP: fmt.Sprintf("%016x", p.MachineFP),
			Stack:     p.Stack,
		})
	}
	if len(r.baseClasses) > 0 {
		b := &BaselineSummary{
			Experiments:       r.BaseInject.Experiments,
			SimInstrs:         r.BaseCost(),
			CleanInstrs:       r.BaseInject.CleanInstrs,
			FaultyInstrs:      r.BaseInject.FaultyInstrs,
			Wall:              r.BaseWall,
			ElidedExperiments: r.BaseInject.ElidedExperiments,
			ElidedSimInstrs:   r.BaseInject.ElidedInstrs,
		}
		if ff := r.FFCost(); ff > 0 {
			b.Speedup = float64(r.BaseCost()) / float64(ff)
		}
		s.Baseline = b
	}
	for _, ev := range evals {
		ts := TargetSummary{
			Target:       ev.Target,
			Adjusted:     ev.Adjusted,
			Achieved:     ev.Achieved,
			FFCostFrac:   ev.FFCostFrac,
			BaseCostFrac: ev.BaseCostFrac,
			CostDiff:     ev.CostDiff,
			ErrRange:     ev.ErrRange,
			WithinRange:  ev.WithinRange,
			SelectedCost: ev.FF.Cost,
			Selected:     staticIDStrings(ev.FF.IDs),
		}
		s.Targets = append(s.Targets, ts)
	}
	return s
}

func staticIDStrings(ids []prog.StaticID) []string {
	sorted := append([]prog.StaticID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Func != sorted[j].Func {
			return sorted[i].Func < sorted[j].Func
		}
		return sorted[i].Local < sorted[j].Local
	})
	out := make([]string, len(sorted))
	for i, id := range sorted {
		out[i] = id.String()
	}
	return out
}

package core

import (
	"reflect"
	"testing"

	"fastflip/internal/bench"
)

// TestCursorEngineMatchesLegacy runs fft-small through the legacy replay
// engine (full checkpoint restore per experiment, section-boundary
// checkpoints only — the pre-cursor engine exactly) and through the default
// cursor/delta engine, and asserts the two are observationally identical:
// the same per-class outcomes for both the FastFlip and baseline campaigns,
// and the same SDC numbers and accounted costs in the Summary. Only the
// engine-work split (clean/faulty instructions) and wall times may differ.
func TestCursorEngineMatchesLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("full injection campaign")
	}

	run := func(legacy bool) (*Result, *Summary) {
		cfg := DefaultConfig()
		cfg.LegacyReplay = legacy
		if legacy {
			// The historical engine had no dense checkpoints.
			cfg.CheckpointInterval = -1
		}
		a := NewAnalyzer(cfg)
		p := bench.MustBuild("fft", bench.Small)
		r, err := a.Analyze(p)
		if err != nil {
			t.Fatalf("legacy=%v: %v", legacy, err)
		}
		a.RunBaseline(r)
		evals, err := a.Evaluate(r, cfg.Epsilon, false)
		if err != nil {
			t.Fatalf("legacy=%v: %v", legacy, err)
		}
		return r, r.Summarize(cfg.Epsilon, evals)
	}

	oldR, oldSum := run(true)
	newR, newSum := run(false)

	if len(oldR.ffClasses) != len(newR.ffClasses) {
		t.Fatalf("ff class count: legacy %d, cursor %d", len(oldR.ffClasses), len(newR.ffClasses))
	}
	for i := range oldR.ffClasses {
		o, n := oldR.ffClasses[i], newR.ffClasses[i]
		if o.class.Key != n.class.Key || o.inst != n.inst {
			t.Fatalf("ff class %d identity differs: %+v vs %+v", i, o.class.Key, n.class.Key)
		}
		if !reflect.DeepEqual(o.out, n.out) {
			t.Errorf("ff class %d (%v inst %d): legacy outcome %+v, cursor outcome %+v",
				i, o.class.Key, o.inst, o.out, n.out)
		}
	}
	if len(oldR.baseClasses) != len(newR.baseClasses) {
		t.Fatalf("baseline class count: legacy %d, cursor %d", len(oldR.baseClasses), len(newR.baseClasses))
	}
	for i := range oldR.baseClasses {
		o, n := oldR.baseClasses[i], newR.baseClasses[i]
		if !reflect.DeepEqual(o.out, n.out) {
			t.Errorf("baseline class %d (%v): legacy outcome %+v, cursor outcome %+v",
				i, o.class.Key, o.out, n.out)
		}
	}

	// The accounted cost model is engine-independent; the work split and
	// wall times are not. Neutralize the latter and the whole summaries
	// must match, SDC numbers included.
	for _, s := range []*Summary{oldSum, newSum} {
		s.FFWall = 0
		s.FFCleanInstrs, s.FFFaultyInstrs = 0, 0
		if s.Baseline != nil {
			s.Baseline.Wall = 0
			s.Baseline.CleanInstrs, s.Baseline.FaultyInstrs = 0, 0
		}
	}
	if !reflect.DeepEqual(oldSum, newSum) {
		t.Errorf("summaries differ:\nlegacy: %+v\ncursor: %+v", oldSum, newSum)
	}

	// Sanity: the cursor engine must actually replay less clean prefix
	// than it bills for (that is the point of the rebuild).
	if newR.FFInject.CleanInstrs+newR.FFInject.FaultyInstrs >= newR.FFInject.SimInstrs {
		t.Errorf("cursor engine work %d+%d not below accounted cost %d",
			newR.FFInject.CleanInstrs, newR.FFInject.FaultyInstrs, newR.FFInject.SimInstrs)
	}
}

// TestElisionMatchesExhaustive is the elision tier's correctness claim on
// a real benchmark: fft-small with static masking (the default) must be
// byte-identical — every per-class outcome and the aggregate outcome
// statistics — to the exhaustive configuration that simulates every
// experiment. Only the accounted-cost
// fields shift: an elided experiment is charged its clean prefix alone.
// CI runs this under -race as the elide-vs-exhaustive equivalence gate.
func TestElisionMatchesExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("two full injection campaigns")
	}

	run := func(elide bool) (*Result, *Summary) {
		cfg := DefaultConfig()
		cfg.Elide = elide
		a := NewAnalyzer(cfg)
		r, err := a.Analyze(bench.MustBuild("fft", bench.Small))
		if err != nil {
			t.Fatalf("elide=%v: %v", elide, err)
		}
		return r, r.Summarize(cfg.Epsilon, nil)
	}

	elided, elidedSum := run(true)
	exhaustive, exhaustiveSum := run(false)

	if elidedSum.ElidedExperiments == 0 {
		t.Fatal("masking tier elided nothing on fft-small; the comparison is vacuous")
	}

	if len(elided.ffClasses) != len(exhaustive.ffClasses) {
		t.Fatalf("class count: elided %d, exhaustive %d", len(elided.ffClasses), len(exhaustive.ffClasses))
	}
	for i := range elided.ffClasses {
		a, b := elided.ffClasses[i], exhaustive.ffClasses[i]
		if a.class.Key != b.class.Key || a.inst != b.inst {
			t.Fatalf("class %d identity differs: %+v vs %+v", i, a.class.Key, b.class.Key)
		}
		if !reflect.DeepEqual(a.out, b.out) {
			t.Errorf("class %d (%v inst %d): elided outcome %+v, exhaustive outcome %+v",
				i, a.class.Key, a.inst, a.out, b.out)
		}
	}
	if elidedSum.Outcomes != exhaustiveSum.Outcomes {
		t.Errorf("outcome stats differ:\nelided:     %+v\nexhaustive: %+v",
			elidedSum.Outcomes, exhaustiveSum.Outcomes)
	}

	for _, s := range []*Summary{elidedSum, exhaustiveSum} {
		s.FFWall = 0
		s.FFCleanInstrs, s.FFFaultyInstrs = 0, 0
		// Accounted cost legitimately differs: elided experiments are
		// charged cleanEnd − checkpoint, executed ones add the faulty
		// suffix. Everything outcome-shaped must still match.
		s.FFSimInstrs = 0
		s.ElidedExperiments, s.ElidedSimInstrs = 0, 0
	}
	if !reflect.DeepEqual(elidedSum, exhaustiveSum) {
		t.Errorf("summaries differ:\nelided:     %+v\nexhaustive: %+v", elidedSum, exhaustiveSum)
	}
}

package diffcheck

import (
	"testing"

	"fastflip/internal/chisel"
	"fastflip/internal/core"
	"fastflip/internal/mix"
)

// The five native fuzz targets. Each input is one generator seed; the
// harness derives program (and edit) deterministically from it, so every
// crash reproduces from the seed alone. Checked-in corpus lives under
// testdata/fuzz/<FuzzName>/.

func FuzzCompositionalSound(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(42))
	f.Fuzz(func(t *testing.T, seed uint64) {
		if v := Check(InvSound, seed); v != nil {
			t.Fatal(v)
		}
	})
}

func FuzzIncrementalMatchesScratch(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(42))
	f.Fuzz(func(t *testing.T, seed uint64) {
		if v := Check(InvIncremental, seed); v != nil {
			t.Fatal(v)
		}
	})
}

func FuzzResumeConverges(f *testing.F) {
	f.Add(uint64(1))
	f.Fuzz(func(t *testing.T, seed uint64) {
		if v := Check(InvResume, seed); v != nil {
			t.Fatal(v)
		}
	})
}

func FuzzEnginesAgree(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(42))
	// Seed 44 generates a discrete kernel with a live absorption chain and
	// a truncating store — the masking tier elides ~23% of its experiments,
	// so the matrix exercises elide-vs-exhaustive agreement for real.
	f.Add(uint64(44))
	f.Fuzz(func(t *testing.T, seed uint64) {
		if v := Check(InvEngines, seed); v != nil {
			t.Fatal(v)
		}
	})
}

func FuzzHardenPreserves(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(42))
	// Seed 44's discrete kernel mixes integer and float protections with
	// heavy register pressure, so the transform's spill save/restore path
	// is on the semantics-preservation hook, not just the fast path.
	f.Add(uint64(44))
	f.Fuzz(func(t *testing.T, seed uint64) {
		if v := Check(InvHarden, seed); v != nil {
			t.Fatal(v)
		}
	})
}

// TestMaskHeavySeedElides pins the property that makes the
// masked-discrete corpus entry interesting: seed 44's absorption chain
// and truncating store let the static masking tier elide a substantial
// share of the campaign, and the engine matrix still agrees byte for
// byte against the exhaustive configuration.
func TestMaskHeavySeedElides(t *testing.T) {
	g := Generate(44, FamilyMixed)
	masked := false
	for _, s := range g.Secs {
		if s.Discrete && s.MaskAnd != 0 && s.Trunc != 0 {
			masked = true
		}
	}
	if !masked {
		t.Fatalf("seed 44 no longer generates a masked discrete kernel:\n%s", g.Source())
	}
	p, err := g.Program()
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.NewAnalyzer(baseConfig()).Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Summarize(0, nil)
	if s.ElidedExperiments == 0 {
		t.Error("masking tier elided nothing on the mask-heavy kernel")
	}
	if v := CheckEngines(g); v != nil {
		t.Fatal(v)
	}
}

// TestOracleSweep runs a short campaign over all four invariants — the
// fffuzz engine end to end, including corpus plumbing.
func TestOracleSweep(t *testing.T) {
	n := 8
	if testing.Short() {
		n = 4
	}
	rep, err := Options{Seed: 1, N: n, CorpusDir: t.TempDir()}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("unexpected violation: %v", v)
	}
	total := 0
	for _, c := range rep.Checked {
		total += c
	}
	if total != n {
		t.Errorf("campaign ran %d checks, want %d", total, n)
	}
}

// TestIncrementalTierMatchesScratch runs the incremental oracle with the
// reuse flowing through the shared outcome tier: two independent store
// handles over one directory, every reused section round-tripping through
// gob and a segment file. The acceptance bar for the shared tier is that
// this is indistinguishable from the warm in-memory store.
func TestIncrementalTierMatchesScratch(t *testing.T) {
	seeds := []uint64{1, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		g := Generate(seed, FamilyMixed)
		e := ProposeEdit(g, newRNG(seed^0xed17))
		if v := CheckIncrementalTier(g, e, t.TempDir()); v != nil {
			t.Fatal(v)
		}
	}
}

// TestSeededChiselBugCaughtAndShrunk is the harness's own differential
// test: disable the chisel bound widening for sub-unity amplification
// factors (a seeded soundness defect behind a test hook) and require the
// soundness oracle to catch it within a bounded seed budget and shrink
// the failure to a reproducer of at most 3 kernels.
func TestSeededChiselBugCaughtAndShrunk(t *testing.T) {
	prev := chisel.SetDropSubUnityAmp(true)
	defer chisel.SetDropSubUnityAmp(prev)

	var caught *Violation
	for i := uint64(0); i < 40 && caught == nil; i++ {
		caught = CheckSoundness(Generate(mix.Fold(1, i), FamilySound))
	}
	if caught == nil {
		t.Fatal("soundness oracle missed the seeded chisel defect across 40 seeds")
	}
	shrunk := ShrinkViolation(caught)
	if n := len(shrunk.Prog.Secs); n > 3 {
		t.Fatalf("shrunk reproducer still has %d kernels, want <= 3:\n%s", n, shrunk.Prog.Source())
	}
	if shrunk.Invariant != InvSound || shrunk.Detail == "" {
		t.Fatalf("shrunk violation lost its identity: %+v", shrunk)
	}
	// With the defect disabled again, the shrunk reproducer must pass —
	// proving the oracle blames the seeded bug, not the program.
	chisel.SetDropSubUnityAmp(false)
	if v := CheckSoundness(shrunk.Prog); v != nil {
		t.Fatalf("shrunk reproducer fails on healthy code: %v", v)
	}
}

// TestStrictReuseKeysRegression pins the reuse-key divergence the fuzzer
// originally found (seed 0xe1ce2c1dc3510be9, shrunk): a loop-bound edit
// to one kernel changes a buffer that a *later* kernel never declares as
// input but can observe through a fault-deflected load, so incremental
// re-analysis only matches from-scratch analysis under strict reuse keys.
func TestStrictReuseKeysRegression(t *testing.T) {
	g := &Prog{
		Seed:    0xe1ce2c1dc3510be9,
		BufLen:  2,
		NextBuf: 4,
		Final:   3,
		IntBufs: []int{2},
		Secs: []Sec{
			{Name: "k1", Out: 1, Bound: 2, Terms: []Term{{Src: 0, Coef: 2, Rev: true}}},
			{Name: "k3", Out: 3, Bound: 2, Terms: []Term{{Src: 2, Coef: -1.25, Rev: true}}},
		},
	}
	e := &Edit{Kind: EditBound, Sec: 0, NewBound: 1}
	if v := CheckIncremental(g, e); v != nil {
		t.Fatalf("incremental oracle (strict keys) fails on the pinned reproducer: %v", v)
	}
}

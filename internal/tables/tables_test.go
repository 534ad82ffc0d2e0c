package tables

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"fastflip/internal/bench"
	"fastflip/internal/sens"
)

// fastSuite runs the evaluation over the two cheapest benchmarks.
func fastSuite(t *testing.T) *Suite {
	t.Helper()
	opts := DefaultOptions()
	opts.Benchmarks = []string{"bscholes", "sha2"}
	cfg := sens.DefaultConfig()
	cfg.Samples = 16
	opts.Sens = cfg
	s, err := RunSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSuiteShape(t *testing.T) {
	if testing.Short() {
		t.Skip("injection campaign")
	}
	s := fastSuite(t)
	if len(s.Runs) != 6 {
		t.Fatalf("runs = %d, want 2 benchmarks x 3 variants", len(s.Runs))
	}
	for _, run := range s.Runs {
		if len(run.EvalsStrict) != len(s.Opts.Targets) {
			t.Errorf("%s/%s: %d strict evals", run.Bench, run.Variant, len(run.EvalsStrict))
		}
		if run.Variant != bench.None && run.R.ReusedInstances == 0 {
			t.Errorf("%s/%s reused nothing", run.Bench, run.Variant)
		}
	}
	if s.Get("bscholes", bench.Small) == nil || s.Get("nothere", bench.None) != nil {
		t.Error("Get lookup broken")
	}
}

func TestTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("injection campaign")
	}
	s := fastSuite(t)

	t1 := s.Table1()
	for _, want := range []string{"bscholes", "sha2", "4 (x2)", "3 (x1)"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 missing %q:\n%s", want, t1)
		}
	}

	t2 := s.Table2()
	if !strings.Contains(t2, "geomean cost:") || strings.Count(t2, "\n") < 8 {
		t.Errorf("Table2 malformed:\n%s", t2)
	}

	t3 := s.Table3()
	if !strings.Contains(t3, "geomean speedup") || !strings.Contains(t3, "Speedup") {
		t.Errorf("Table3 malformed:\n%s", t3)
	}

	// Table 4 is Campipe-specific; with this subset it has only headers.
	if !strings.Contains(s.Table4(), "WITHOUT target adjustment") {
		t.Error("Table4 missing title")
	}

	t64 := s.Table64()
	if !strings.Contains(t64, "SHA2 stays 0") {
		t.Errorf("Table64 missing SHA2 note:\n%s", t64)
	}

	if _, err := s.Eq2("bscholes"); err != nil {
		t.Errorf("Eq2: %v", err)
	}
	if _, err := s.Eq2("lud"); err == nil {
		t.Error("Eq2 for a benchmark outside the suite did not error")
	}

	fig, err := s.Figure1("bscholes")
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	if strings.Count(fig, "\n") < 15 {
		t.Errorf("Figure1 sweep too short:\n%s", fig)
	}
}

func TestSHA2KeepsStrictEpsilon(t *testing.T) {
	if testing.Short() {
		t.Skip("injection campaign")
	}
	s := fastSuite(t)
	// §6.4: SHA2's relaxed-ε evaluation must be identical to the strict
	// one because its ε stays 0.
	run := s.Get("sha2", bench.None)
	for i := range run.EvalsStrict {
		if run.EvalsStrict[i].Achieved != run.EvalsGood[i].Achieved {
			t.Errorf("sha2 eval %d differs between strict and good", i)
		}
	}
}

// TestPerfRecordJSONRoundTrip: the machine-readable digest must preserve
// every field through encode/decode — in particular the protection-loop
// additions (harden_target, residual_sdc, detector_coverage,
// protection_overhead), which downstream perf dashboards key on.
func TestPerfRecordJSONRoundTrip(t *testing.T) {
	want := PerfRecord{
		Bench:                 "lud",
		Variant:               "small",
		SiteCount:             4096,
		DynInstrs:             123456,
		Reused:                6,
		Injected:              2,
		FFExperiments:         2048,
		FFSimInstrs:           999999,
		FFCleanInstrs:         1111,
		FFFaultyInstrs:        2222,
		FFWallNs:              1500,
		FFElidedExperiments:   96,
		FFElidedSimInstrs:     48000,
		FFExecutedExperiments: 1952,
		BaseExperims:          4096,
		BaseSimInstrs:         5000000,
		BaseCleanInstr:        4000,
		BaseFaultyInst:        5000,
		BaseWallNs:            9000,
		Speedup:               3.2,
		HardenTarget:          0.95,
		ResidualSDC:           120,
		PredictedResidual:     150,
		DetectorCoverage:      0.93,
		ProtectionOverhead:    0.42,
	}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got PerfRecord
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the record:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestPerfRecordOmitEmpty: a run without the protection loop keeps the
// hardening keys out of the wire format entirely (consumers feature-detect
// by key presence), while the always-on cost fields stay.
func TestPerfRecordOmitEmpty(t *testing.T) {
	data, err := json.Marshal(PerfRecord{Bench: "fft"})
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, absent := range []string{
		"harden_target", "residual_sdc", "predicted_residual",
		"detector_coverage", "protection_overhead",
	} {
		if strings.Contains(text, `"`+absent+`"`) {
			t.Errorf("zero-value record serializes %q: %s", absent, text)
		}
	}
	for _, present := range []string{"bench", "ff_experiments", "speedup"} {
		if !strings.Contains(text, `"`+present+`"`) {
			t.Errorf("record missing always-on key %q: %s", present, text)
		}
	}
}

func TestGroup(t *testing.T) {
	for _, tt := range []struct {
		n    int
		want string
	}{
		{0, "0"}, {999, "999"}, {1000, "1,000"}, {1234567, "1,234,567"},
	} {
		if got := group(tt.n); got != tt.want {
			t.Errorf("group(%d) = %q, want %q", tt.n, got, tt.want)
		}
	}
}

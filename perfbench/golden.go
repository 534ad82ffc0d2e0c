package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"fastflip/internal/core"
)

// checker compares every analysis and service job against the golden
// digests. A digest covers the neutralized core.Summary and the simulated
// instruction count; a mismatch fails the run.
type checker struct {
	golden     map[string]string
	got        map[string]string
	mismatches []string
}

func newChecker(golden []byte) (*checker, error) {
	c := &checker{golden: map[string]string{}, got: map[string]string{}}
	if err := json.Unmarshal(golden, &c.golden); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return c, nil
}

// check records digest under name. A name seen twice in one run must
// digest the same; otherwise it must equal the golden digest.
func (c *checker) check(name, digest string) {
	prev, seen := c.got[name]
	switch {
	case seen && prev != digest:
		c.mismatches = append(c.mismatches, fmt.Sprintf("%s: %s, earlier in this run %s", name, digest, prev))
	case !seen && c.golden[name] != digest:
		c.mismatches = append(c.mismatches, fmt.Sprintf("%s: got %s, golden %q", name, digest, c.golden[name]))
	}
	c.got[name] = digest
}

// summary checks a job's summary and its simulated-instruction count.
func (c *checker) summary(name string, s *core.Summary, simInstrs uint64) error {
	d, err := digestOf(neutralize(s), simInstrs)
	if err != nil {
		return fmt.Errorf("digest of %s: %w", name, err)
	}
	c.check(name, d)
	return nil
}

func (c *checker) ok() bool { return len(c.mismatches) == 0 }

// neutralize zeroes the summary fields that describe how a run got its
// results rather than what they are: wall time, the engine-work split,
// batch telemetry, reuse and resume provenance.
func neutralize(s *core.Summary) *core.Summary {
	c := *s
	c.Reused, c.Injected = 0, 0
	c.SharedHits, c.SharedMisses = 0, 0
	c.FFExperiments, c.FFSimInstrs, c.FFWall = 0, 0, 0
	c.FFCleanInstrs, c.FFFaultyInstrs = 0, 0
	c.ElidedExperiments, c.ElidedSimInstrs = 0, 0
	c.BatchedExperiments, c.BatchReplicasAvg = 0, 0
	c.ResumedExperiments = 0
	c.WALNotes = nil
	if s.Baseline != nil {
		b := *s.Baseline
		b.Wall = 0
		b.CleanInstrs, b.FaultyInstrs = 0, 0
		b.BatchedExperiments = 0
		b.Speedup = 0
		c.Baseline = &b
	}
	return &c
}

// digestOf hashes v's JSON encoding followed by the simulated-instruction
// count, the paper's cost proxy, which neutralized summaries leave out.
func digestOf(v any, simInstrs uint64) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(b)
	fmt.Fprintf(h, "\nsim_instrs=%d", simInstrs)
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

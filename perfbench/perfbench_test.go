package main

import (
	"testing"
	"time"

	"fastflip/internal/bench"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Fatalf("median = %v; want 5.5", m)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("job", "j", 0, at(0), at(10))
	tr.add("a", "j", root, at(1), at(3))
	tr.add("b", "j", root, at(2), at(5))
	tr.add("c", "j", root, at(8), at(12)) // clipped to the parent's end
	self := tr.selfTimes()
	if got := self["job"]; got != 4*time.Millisecond {
		t.Fatalf("self(job) = %v; want 4ms", got)
	}
	if got := self["c"]; got != 4*time.Millisecond {
		t.Fatalf("self(c) = %v; want 4ms", got)
	}
}

// TestStreamOrderFixesEveryJobsInputs checks the ordering rules that make
// each service job's summary independent of the seed.
func TestStreamOrderFixesEveryJobsInputs(t *testing.T) {
	var want int
	for _, n := range serviceWarm {
		want += n
	}
	for _, n := range serviceHardens {
		want += n
	}
	want += len(serviceBenches) * len(bench.Variants)
	for seed := int64(1); seed <= 20; seed++ {
		stream := genStream(seed)
		if len(stream) != want {
			t.Fatalf("seed %d: %d jobs, want %d", seed, len(stream), want)
		}
		firsts := map[version]int{}
		for i, j := range stream {
			switch j.kind {
			case kindFirst:
				firsts[j.v] = i
				for k, v := range bench.Variants {
					if v == j.v.variant && k > 0 {
						if _, ok := firsts[version{j.v.bench, bench.Variants[k-1]}]; !ok {
							t.Fatalf("seed %d: first %s before the previous version", seed, j.v)
						}
					}
				}
			case kindWarm:
				if _, ok := firsts[j.v]; !ok {
					t.Fatalf("seed %d: warm %s before its first submission", seed, j.v)
				}
			case kindHarden:
				if _, ok := firsts[version{j.v.bench, bench.Large}]; !ok {
					t.Fatalf("seed %d: harden %s before all versions were submitted", seed, j.v)
				}
			}
		}
	}
}

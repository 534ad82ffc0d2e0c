package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+sys CPU time (all threads).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the process's resident-set high-water mark to its
// current resident set (Linux 4.0 and later).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB returns the process's resident-set high-water mark (VmHWM)
// since the last resetPeakRSS.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading the peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("reading the peak RSS: %w", err)
			}
			return float64(kib) / 1024, nil
		}
	}
	return 0, fmt.Errorf("reading the peak RSS: no VmHWM in /proc/self/status")
}

// stolenSeconds returns the CPU time the hypervisor reports as stolen
// from this VM, summed over its CPUs (the steal column of /proc/stat, in
// USER_HZ = 100 ticks per second), or 0 where it is not reported.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // "cpu" user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return float64(ticks) / 100
}

// stealWindow measures the share of the VM's CPU time stolen over an
// interval.
type stealWindow struct {
	start  time.Time
	stolen float64
}

func startSteal() stealWindow { return stealWindow{time.Now(), stolenSeconds()} }

// share is the stolen CPU time since start over all CPUs' time.
func (w stealWindow) share() float64 {
	return ratio(stolenSeconds()-w.stolen, time.Since(w.start).Seconds()*float64(runtime.NumCPU()))
}

// phaseClock measures a timed phase's wall time, process CPU time, GC
// share and stolen CPU share.
type phaseClock struct {
	start time.Time
	cpu0  time.Duration
	rt0   runtimeSample
	steal stealWindow
}

func startClock() *phaseClock {
	return &phaseClock{start: time.Now(), cpu0: cpuTime(), rt0: readRuntime(), steal: startSteal()}
}

// stop records the phase's times into p.
func (c *phaseClock) stop(p *pass) {
	p.stolen = c.steal.share()
	p.wall = time.Since(c.start)
	p.cpu = cpuTime() - c.cpu0
	p.gcCPUFrac = gcCPUFrac(c.rt0, readRuntime())
}

// runtimeSample reads the Go runtime counters the benchmark derives
// ratios from: GC CPU, total CPU and cumulative heap allocation.
type runtimeSample struct {
	gcCPU, totalCPU, heapAlloc float64
}

var sampleNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]rtmetrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rtmetrics.KindFloat64:
			return s[i].Value.Float64()
		case rtmetrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: v(0), totalCPU: v(1), heapAlloc: v(2)}
}

// gcCPUFrac is the share of the CPU time between two samples that the
// garbage collector used.
func gcCPUFrac(a, b runtimeSample) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// allocMiB is the heap allocated between two samples.
func allocMiB(a, b runtimeSample) float64 { return (b.heapAlloc - a.heapAlloc) / (1 << 20) }

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly above the q-quantile.
func beyond(xs []float64, q float64) int {
	v, n := quantile(xs, q), 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// span is one timed call into a layer. Spans of one analysis or job share
// Job; Parent is the index+1 of the enclosing span (0 for a root).
type span struct {
	Name   string `json:"name"`
	Job    string `json:"job"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine only; a nil tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle (index+1).
func (t *tracer) begin(name, job string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

func (t *tracer) end(h int) {
	if t == nil || h == 0 {
		return
	}
	t.spans[h-1].End = int64(time.Since(t.epoch))
}

// add records a span whose bounds were observed elsewhere (for example
// the service's job timestamps).
func (t *tracer) add(name, job string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return len(t.spans)
}

// dur returns a closed span's duration.
func (t *tracer) dur(h int) time.Duration {
	s := t.spans[h-1]
	return time.Duration(s.End - s.Start)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered(s.Start, s.End, children[i+1]))
	}
	return self
}

// covered returns the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores the spans as JSON under path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// layerMetrics accumulates the counts and values a traced pass measures
// directly (everything that is not a span self time).
type layerMetrics struct {
	values    map[string]float64
	attempted int
	failed    int
}

func (lm *layerMetrics) add(name string, v float64) { lm.values[name] += v }

// layerDef is one per-layer metric: the summed self time of the named
// spans (in ms), or, without spans, a value accumulated in layerMetrics.
type layerDef struct {
	name, unit string
	spans      []string
}

// perLayer lists every per-layer metric in the order they are reported.
var perLayer = []layerDef{
	{name: "trace.record_ms", unit: "ms", spans: []string{"trace.record"}},
	{name: "maskelide.analyze_ms", unit: "ms", spans: []string{"maskelide.analyze"}},
	{name: "sites.classify_ms", unit: "ms", spans: []string{"sites.classify"}},
	{name: "sites.classify_reused_ms", unit: "ms"},
	{name: "sites.alloc_mb", unit: "MiB"},
	{name: "sites.count_ms", unit: "ms", spans: []string{"sites.count", "sites.untested"}},
	{name: "store.key_ms", unit: "ms", spans: []string{"store.key"}},
	{name: "store.lookup_ms", unit: "ms", spans: []string{"store.lookup"}},
	{name: "store.hit_frac", unit: "frac"},
	{name: "store.clone_ms", unit: "ms", spans: []string{"store.clone"}},
	{name: "inject.run_ms", unit: "ms", spans: []string{"inject.run"}},
	{name: "inject.us_per_exp", unit: "us"},
	{name: "inject.alloc_mb", unit: "MiB"},
	{name: "inject.experiments", unit: "count"},
	{name: "inject.elided_frac", unit: "frac"},
	{name: "inject.batched_frac", unit: "frac"},
	{name: "inject.clean_minstr", unit: "Minstr"},
	{name: "inject.faulty_minstr", unit: "Minstr"},
	{name: "vm.minstr_per_s", unit: "Minstr/s"},
	{name: "sens.analyze_ms", unit: "ms", spans: []string{"sens.analyze"}},
	{name: "sens.runs", unit: "count"},
	{name: "chisel.compose_ms", unit: "ms", spans: []string{"chisel.compose"}},
	{name: "knap.solve_ms", unit: "ms", spans: []string{"knap.solve"}},
	{name: "core.summarize_ms", unit: "ms", spans: []string{"core.summarize"}},
	{name: "harden.apply_ms", unit: "ms", spans: []string{"harden.apply"}},
	{name: "harden.reinject_ms", unit: "ms"},
	{name: "service.queue_ms", unit: "ms"},
	{name: "service.run_ms", unit: "ms"},
	{name: "server.overhead_ms", unit: "ms"},
	{name: "service.cache_hit_frac", unit: "frac"},
	{name: "ostore.hit_frac", unit: "frac"},
	{name: "ostore.bytes_mb", unit: "MiB"},
	{name: "go.gc_cpu_frac", unit: "frac"},
	{name: "tracing.overhead_frac", unit: "frac"},
}

// derived fills the per-layer ratios from the accumulated counts and the
// span-derived times.
func derived(m map[string]metric, lm *layerMetrics) {
	set := func(name string, v float64) { m[name] = metric{Value: v, Unit: m[name].Unit} }
	v := lm.values
	exps, elided := v["inject.experiments"], v["inject.elided"]
	runMS := m["inject.run_ms"].Value
	set("inject.us_per_exp", ratio(runMS*1000, exps))
	set("inject.elided_frac", ratio(elided, exps))
	set("inject.batched_frac", ratio(v["inject.batched"], exps-elided))
	// Instruction counts are summed as integers and scaled once, so they
	// repeat exactly whatever the order of the analyses.
	set("inject.clean_minstr", v["inject.clean"]/1e6)
	set("inject.faulty_minstr", v["inject.faulty"]/1e6)
	set("vm.minstr_per_s", ratio(v["inject.clean"]+v["inject.faulty"], runMS*1000))
	set("store.hit_frac", ratio(v["store.reused"], v["store.instances"]))
	if u := v["untraced_s"]; u > 0 {
		set("tracing.overhead_frac", v["traced_s"]/u-1)
	}
}

// ratio is a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// Command perfbench is fastflip's end-to-end and per-layer benchmark.
//
// One process drives one workload:
//
//	perfbench --workload scratch|incremental|service --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics with tracing off; with
// --trace 1 it walks the same inputs through the layers' public calls,
// records a span around each call, and reports per-layer self times and
// counts. Every analysis and service job is checked against the golden
// digests in golden.json. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// With --report N it instead runs every workload (or only --workload) N
// times, each run a child process with its own seed, and prints the
// steadiness report: median, quartiles and spread of every metric,
// flagging end-to-end metrics whose spread exceeds the bound in
// BENCHMARK.json.
//
// See README.md for the workloads, the metrics and how to run them.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// workload is one benchmark scenario. setup prepares everything the timed
// phase needs; a run repeats it setupReps times.
type workload struct {
	name string
	// passes is how many identical passes the timed phase makes at least;
	// further passes follow while the passes so far took less than
	// --seconds of wall time.
	passes int
	setup  func(seed int64) (state, error)
}

// state is a workload set up and ready to run.
type state interface {
	// timed runs one pass with tracing off and returns its measurements.
	timed(ck *checker) (pass, error)
	// traced runs one pass through the traced layer walk, recording spans
	// into tr and per-layer counts into lm.
	traced(ck *checker, tr *tracer, lm *layerMetrics) error
	close()
}

// pass is the measurement of one timed pass.
type pass struct {
	wall, cpu  time.Duration
	simInstrs  uint64
	jobs       []time.Duration // per-job latency
	stolen     float64         // share of the VM's CPU time stolen during the pass
	attempted  int
	failed     int
	gcCPUFrac  float64
	extraLines []string
}

var workloads = []workload{
	{name: "scratch", passes: 1, setup: setupScratch},
	{name: "incremental", passes: 3, setup: setupIncremental},
	{name: "service", passes: 3, setup: setupService},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// setupReps is how many times a run sets up its workload; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 3

//go:embed golden.json
var goldenJSON []byte

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: scratch, incremental or service")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "shortest timed phase in seconds")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced layer walk")
	report := flag.Int("report", 0, "run every workload this many times and print the steadiness report")
	flag.Parse()

	if *report > 0 {
		return steadinessReport(*report, *name, *seed, *seconds, *traceMode)
	}
	wl := findWorkload(*name)
	if wl == nil || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload scratch|incremental|service, --seconds >= 1 and --trace 0|1\n")
		return 2
	}

	ck, err := newChecker(goldenJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s inject_workers=%d service_job_workers=1 workload=%s seed=%d seconds=%d min_passes=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOMAXPROCS(0), wl.name, *seed, *seconds, wl.passes, *traceMode)

	var st state
	var setups, rawSetups []float64
	for i := 0; i < setupReps; i++ {
		if st != nil {
			// Release the previous set-up before the next one.
			st.close()
			st = nil
			runtime.GC()
		}
		start, steal := time.Now(), startSteal()
		if st, err = wl.setup(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 1
		}
		d := time.Since(start).Seconds()
		rawSetups = append(rawSetups, d)
		setups = append(setups, d*(1-steal.share()))
	}
	defer st.close()

	res := result{Metrics: map[string]metric{}}
	if *traceMode == 0 {
		err = measureTimed(st, ck, wl.passes, time.Duration(*seconds)*time.Second, setups, rawSetups, &res)
	} else {
		err = measureTraced(st, ck, wl.name, *seed, &res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.Correct = ck.ok() && res.Failed == 0
	if err := printResult(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		for _, m := range ck.mismatches {
			fmt.Fprintln(os.Stderr, "perfbench: golden mismatch:", m)
		}
		return 1
	}
	return 0
}

// measureTimed runs the timed passes, at least minPasses and at least
// minWall of pass wall time, and fills the end-to-end metrics. Wall-clock
// times leave out the CPU time the hypervisor stole: a time t measured
// while a share s of the VM's CPU time was stolen counts as t·(1−s).
// Times are medians over passes; sim_ginstr must be equal on every pass.
// peak_rss_mb is the resident-set high-water mark of the timed phase
// alone: memory left from set-up is returned first and the mark reset.
func measureTimed(st state, ck *checker, minPasses int, minWall time.Duration, setups, rawSetups []float64, res *result) error {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	var walls, rawWalls, cpus, gcs, stolen []float64
	var jobs, rawJobs [][]float64 // [i]: job i's latency in each pass, in ms
	var sim uint64
	var elapsed time.Duration
	for i := 0; i < minPasses || elapsed < minWall; i++ {
		p, err := st.timed(ck)
		if err != nil {
			return err
		}
		if i > 0 && p.simInstrs != sim {
			return fmt.Errorf("pass %d simulated %d instructions, pass 0 %d", i, p.simInstrs, sim)
		}
		sim = p.simInstrs
		elapsed += p.wall
		keep := 1 - p.stolen
		walls = append(walls, p.wall.Seconds()*keep)
		rawWalls = append(rawWalls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		gcs = append(gcs, p.gcCPUFrac)
		stolen = append(stolen, p.stolen)
		for j, d := range p.jobs {
			if i == 0 {
				jobs, rawJobs = append(jobs, nil), append(rawJobs, nil)
			}
			jobs[j] = append(jobs[j], float64(d)/1e6*keep)
			rawJobs[j] = append(rawJobs[j], float64(d)/1e6)
		}
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, l := range p.extraLines {
			fmt.Println(l)
		}
	}
	// Every pass runs the same jobs in the same order; a job's latency is
	// its median over the passes.
	ms, rawMS := make([]float64, len(jobs)), make([]float64, len(jobs))
	for j := range jobs {
		ms[j], rawMS[j] = median(jobs[j]), median(rawJobs[j])
	}
	put := func(name, unit string, v, raw float64) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		if raw >= 0 {
			fmt.Printf("raw %s %.6g %s\n", name, raw, unit)
		}
	}
	put("setup_s", "s", median(setups), median(rawSetups))
	put("wall_s", "s", median(walls), median(rawWalls))
	put("cpu_s", "s", median(cpus), -1)
	peak, err := peakRSSMiB()
	if err != nil {
		return err
	}
	put("peak_rss_mb", "MiB", peak, -1)
	put("sim_ginstr", "Ginstr", float64(sim)/1e9, -1)
	put("job_p50_ms", "ms", quantile(ms, 0.50), quantile(rawMS, 0.50))
	put("job_p90_ms", "ms", quantile(ms, 0.90), quantile(rawMS, 0.90))
	fmt.Printf("samples jobs=%d beyond_p50=%d beyond_p90=%d setups=%d passes_per_job=%d stolen_cpu_share=%.4f\n",
		len(ms), beyond(ms, 0.50), beyond(ms, 0.90), len(setups), len(walls), median(stolen))
	fmt.Printf("metric failed_frac %.4f frac (%d of %d)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	fmt.Printf("metric go.gc_cpu_frac %.4f frac\n", median(gcs))
	return nil
}

// measureTraced runs the traced pass and fills the per-layer metrics.
func measureTraced(st state, ck *checker, name string, seed int64, res *result) error {
	tr := newTracer()
	lm := &layerMetrics{values: map[string]float64{}}
	err := st.traced(ck, tr, lm)
	res.Attempted, res.Failed = lm.attempted, lm.failed
	if werr := tr.write(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", name, seed))); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	self := tr.selfTimes()
	for _, m := range perLayer {
		v := lm.values[m.name]
		if len(m.spans) > 0 {
			v = 0
			for _, s := range m.spans {
				v += float64(self[s]) / 1e6
			}
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	derived(res.Metrics, lm)
	fmt.Printf("samples spans=%d\n", len(tr.spans))
	return nil
}

// printResult prints every metric by name and unit, then the result as
// the last line of standard output.
func printResult(res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %s %.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	fmt.Println(string(out))
	return nil
}

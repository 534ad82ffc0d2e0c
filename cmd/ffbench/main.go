// Command ffbench runs the FastFlip evaluation and regenerates the paper's
// tables and figures (see DESIGN.md for the experiment index).
//
// Usage:
//
//	ffbench                         # everything, all benchmarks
//	ffbench -benchmarks lud,sha2    # a subset
//	ffbench -artifact table3        # one artifact
//	ffbench -quick                  # fewer sensitivity samples
//	ffbench -out bench.json         # machine-readable perf record
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"fastflip/internal/sens"
	"fastflip/internal/tables"
)

// artifacts are the valid -artifact names.
var artifacts = []string{"all", "table1", "table2", "table3", "table4", "table6.4", "figure1", "eq2"}

// checkArtifact rejects an -artifact name the suite cannot print: an
// unknown name, or eq2/figure1 (which are computed on lud) when the
// benchmark subset leaves lud out. An empty subset means all benchmarks.
func checkArtifact(artifact string, benchmarks []string) error {
	if !slices.Contains(artifacts, artifact) {
		return fmt.Errorf("unknown -artifact %q (one of: %s)", artifact, strings.Join(artifacts, ", "))
	}
	if (artifact == "eq2" || artifact == "figure1") && len(benchmarks) > 0 && !slices.Contains(benchmarks, "lud") {
		return fmt.Errorf("-artifact %s needs lud in -benchmarks", artifact)
	}
	return nil
}

func main() {
	var (
		benchmarks = flag.String("benchmarks", "", "comma-separated benchmark subset (default all)")
		artifact   = flag.String("artifact", "all", "one of: "+strings.Join(artifacts, ", "))
		workers    = flag.Int("workers", 0, "injection worker goroutines (0 = GOMAXPROCS)")
		quick      = flag.Bool("quick", false, "fewer sensitivity samples for a faster run")
		quiet      = flag.Bool("quiet", false, "suppress per-version progress lines")
		out        = flag.String("out", "", "write per-version perf records (wall time, sim-instrs, clean/faulty split, speedup) as JSON to this file")
		walDir     = flag.String("wal-dir", "", "write-ahead campaign log directory (crash-safe persistence of completed experiments)")
		resume     = flag.Bool("resume", false, "with -wal-dir: merge experiments a previous (crashed) run logged and re-execute only the remainder")
		noElide    = flag.Bool("no-elide", false, "disable the static masking tier (simulate every experiment instead of proving masked bits)")
	)
	flag.Parse()

	if *resume && *walDir == "" {
		fmt.Fprintln(os.Stderr, "ffbench: -resume requires -wal-dir")
		os.Exit(2)
	}

	opts := tables.DefaultOptions()
	opts.Workers = *workers
	opts.WALDir = *walDir
	opts.Resume = *resume
	opts.NoElide = *noElide
	if *benchmarks != "" {
		opts.Benchmarks = strings.Split(*benchmarks, ",")
	}
	if err := checkArtifact(*artifact, opts.Benchmarks); err != nil {
		fmt.Fprintln(os.Stderr, "ffbench:", err)
		os.Exit(2)
	}
	if *quick {
		cfg := sens.DefaultConfig()
		cfg.Samples = 16
		opts.Sens = cfg
	}
	if !*quiet {
		opts.Log = os.Stderr
	}

	suite, err := tables.RunSuite(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ffbench:", err)
		os.Exit(1)
	}

	emit := func(name string, body string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "ffbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(body)
	}

	want := func(name string) bool { return *artifact == "all" || *artifact == name }

	if want("table1") {
		fmt.Println(suite.Table1())
	}
	hasLUD := suite.Get("lud", "none") != nil
	if want("eq2") && hasLUD {
		body, err := suite.Eq2("lud")
		emit("eq2", body, err)
	}
	if want("figure1") && hasLUD {
		body, err := suite.Figure1("lud")
		emit("figure1", body, err)
	}
	if want("table2") {
		fmt.Println(suite.Table2())
	}
	if want("table3") {
		fmt.Println(suite.Table3())
	}
	if want("table4") {
		fmt.Println(suite.Table4())
	}
	if want("table6.4") {
		fmt.Println(suite.Table64())
	}

	if *out != "" {
		data, err := json.MarshalIndent(suite.PerfRecords(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "ffbench: encode perf records:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ffbench:", err)
			os.Exit(1)
		}
	}
}

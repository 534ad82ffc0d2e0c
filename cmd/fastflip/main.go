// Command fastflip analyzes one benchmark version with the FastFlip
// pipeline, optionally reusing and updating a persistent section store —
// the workflow a developer would run from CI after each commit.
//
// Usage:
//
//	fastflip -bench lud                       # analyze the original version
//	fastflip -bench lud -store lud.ffs        # ... and persist section results
//	fastflip -bench lud -variant small -store lud.ffs -modified
//	                                          # re-analyze after a change, reusing the store
//	fastflip -bench lud -list                 # print the selected instructions
//	fastflip -bench lud -harden -target 0.95  # apply the selection as detectors
//	                                          # and measure the residual SDC
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"fastflip"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fastflip: ")
	var (
		benchName = flag.String("bench", "", "benchmark to analyze (required; one of "+strings.Join(fastflip.Benchmarks(), ", ")+")")
		variant   = flag.String("variant", "none", "benchmark version: none, small, large")
		storePath = flag.String("store", "", "path of the persistent section store (loaded if present, saved after)")
		modified  = flag.Bool("modified", false, "treat this version as a modification of the last stored analysis (§4.10)")
		targets   = flag.String("targets", "0.90,0.95,0.99", "comma-separated protection value targets")
		eps       = flag.Float64("eps", 0, "SDC-Bad threshold ε (SDCs up to ε are acceptable)")
		workers   = flag.Int("workers", 0, "injection worker goroutines (0 = GOMAXPROCS)")
		baseline  = flag.Bool("baseline", true, "also run the monolithic baseline (needed for utility comparison)")
		list      = flag.Bool("list", false, "print the selected instructions for the first target")
		spec      = flag.Bool("spec", false, "print the composed end-to-end SDC specification")
		report    = flag.Bool("report", false, "print the per-instruction vulnerability report")
		jsonOut   = flag.Bool("json", false, "emit the result as JSON (the shape ffserved returns) instead of text")
		walDir    = flag.String("wal-dir", "", "write-ahead campaign log directory (crash-safe persistence of completed experiments)")
		resume    = flag.Bool("resume", false, "with -wal-dir: merge experiments a previous (crashed) run logged and re-execute only the remainder")
		noElide   = flag.Bool("no-elide", false, "disable the static masking tier (simulate every experiment instead of proving masked bits)")
		sharedDir = flag.String("shared-store", "", "directory of the shared content-addressed outcome tier (sections analyzed by any process using the same directory are reused, fresh ones published back)")
		tenant    = flag.String("tenant", "cli", "tenant name attributed in the shared store (with -shared-store)")
		hardenOn  = flag.Bool("harden", false, "apply the knapsack selection as duplication-and-compare detectors, re-inject the hardened program, and report the measured residual SDC against the predicted bound")
		hardenTgt = flag.Float64("target", 0.95, "with -harden: protection value target the selection is solved for")
		dumpAsm   = flag.Bool("dump-hardened", false, "with -harden: print the hardened program's disassembly")
	)
	flag.Parse()
	if *benchName == "" {
		flag.Usage()
		os.Exit(2)
	}

	cfg := fastflip.DefaultConfig()
	cfg.Workers = *workers
	cfg.WALDir = *walDir
	cfg.Resume = *resume
	cfg.Elide = !*noElide
	if *resume && *walDir == "" {
		log.Fatal("-resume requires -wal-dir")
	}
	cfg.Targets = nil
	for _, f := range strings.Split(*targets, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			log.Fatalf("bad target %q: %v", f, err)
		}
		cfg.Targets = append(cfg.Targets, v)
	}

	a := fastflip.NewAnalyzer(cfg)
	if *storePath != "" {
		if st, err := fastflip.LoadStore(*storePath); err == nil {
			a.Store = st
			if !*jsonOut {
				fmt.Printf("loaded store %s (%d sections)\n", *storePath, len(st.Sections))
			}
		} else if !errors.Is(err, fs.ErrNotExist) {
			// A missing store is the first-run case; anything else is real.
			log.Fatal(err)
		}
	}

	var shared *fastflip.SharedStore
	if *sharedDir != "" {
		var err error
		shared, err = fastflip.OpenSharedStore(fastflip.SharedStoreOptions{Dir: *sharedDir})
		if err != nil {
			log.Fatal(err)
		}
		a.Store.WithTier(shared.AsTier(*tenant))
	}

	p, err := fastflip.BuildBenchmark(*benchName, fastflip.Variant(*variant))
	if err != nil {
		log.Fatal(err)
	}
	if *modified {
		a.NoteModification()
	}

	r, err := a.Analyze(p)
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range r.WALNotes {
		log.Printf("wal: %s", n)
	}
	if r.WALDegraded {
		log.Printf("warning: campaign log degraded after persistent write failures; results are memory-only and a resume will re-inject the affected sections")
	}
	if r.PanicRetries > 0 {
		log.Printf("warning: %d experiment(s) panicked once and succeeded on a retried clean machine", r.PanicRetries)
	}
	for _, p := range r.Poisoned {
		log.Printf("warning: experiment quarantined after %d panics (class %v/%v.bit%d, machine %016x); outcome filled conservatively",
			p.Attempts, p.Key.Static, p.Key.Role, p.Key.Bit, p.MachineFP)
	}

	var evals []fastflip.TargetEval
	if *baseline {
		a.RunBaseline(r)
		if evals, err = a.Evaluate(r, *eps, *modified); err != nil {
			log.Fatal(err)
		}
	}

	var h *fastflip.HardenEval
	if *hardenOn {
		if h, err = a.Harden(context.Background(), r, *eps, *hardenTgt); err != nil {
			log.Fatal(err)
		}
	}

	if *jsonOut {
		s := r.Summarize(*eps, evals)
		if h != nil {
			h.ApplyTo(s)
			if s.HardenedAsm, err = h.Asm(); err != nil {
				log.Fatal(err)
			}
		}
		s.Bench = *benchName
		s.Variant = *variant
		if shared != nil {
			// The handle is opened fresh per process, so its counters are
			// exactly this run's shared-tier traffic.
			st := shared.Stats()
			s.SharedHits, s.SharedMisses = int(st.Hits), int(st.Misses)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Printf("%s/%s: %d error sites, %d dynamic instructions, %d section instances\n",
			*benchName, *variant, r.SiteCount, r.Trace.TotalDyn, len(r.Trace.Instances))
		exec, total := r.Trace.Coverage()
		fmt.Printf("static coverage: %d/%d instructions of interest executed\n", exec, total)
		fmt.Printf("FastFlip: %d experiments, %.1f Mi simulated instructions, %v wall (%d sections reused)\n",
			r.FFInject.Experiments, float64(r.FFCost())/1e6, r.FFWall.Round(1e6), r.ReusedInstances)
		if n := r.ResumedExperiments(); n > 0 {
			fmt.Printf("resumed: %d experiments recovered from the campaign log, %d re-executed\n",
				n, r.FFInject.Experiments-n)
		}
		st := r.FFOutcomeStats(*eps)
		fmt.Printf("outcomes (FastFlip labels): masked %.1f%%, detected %.1f%%, SDC-good %.1f%%, SDC-bad %.1f%%, untested %.1f%%\n",
			pct(st.Masked, st.Total()), pct(st.Detected, st.Total()),
			pct(st.SDCGood, st.Total()), pct(st.SDCBad, st.Total()), pct(st.Untested, st.Total()))

		if *spec {
			for λ, out := range p.FinalOutputs {
				fmt.Printf("d(%s) <= %s\n", out.Name, r.FormatSpec(λ))
			}
		}

		if *baseline {
			fmt.Printf("baseline: %d experiments, %.1f Mi simulated instructions, %v wall (%.1fx)\n",
				r.BaseInject.Experiments, float64(r.BaseCost())/1e6, r.BaseWall.Round(1e6),
				float64(r.BaseCost())/float64(r.FFCost()))
			for _, ev := range evals {
				fmt.Printf("target %.3f (adjusted %.4f): achieved %.4f, cost %.3f vs baseline %.3f (diff %+.4f)\n",
					ev.Target, ev.Adjusted, ev.Achieved, ev.FFCostFrac, ev.BaseCostFrac, ev.CostDiff)
			}
			if *list && len(evals) > 0 {
				sel := evals[0].FF
				ids := append([]fastflip.StaticID(nil), sel.IDs...)
				sort.Slice(ids, func(i, j int) bool {
					if ids[i].Func != ids[j].Func {
						return ids[i].Func < ids[j].Func
					}
					return ids[i].Local < ids[j].Local
				})
				fmt.Printf("\nselected instructions for target %.3f (%d instructions, cost %d):\n",
					evals[0].Target, len(ids), sel.Cost)
				for _, id := range ids {
					fmt.Printf("  %s\n", id)
				}
			}
		}

		if h != nil {
			orig := r.FFBadCounts(*eps).Total
			fmt.Printf("hardened (target %.3f): %d instructions protected (%d ineligible), +%d instructions, %d spills\n",
				h.Target, len(h.Protected), len(h.Skipped), h.AddedInstrs, h.Spills)
			fmt.Printf("residual SDC: %d measured <= %d predicted (unhardened %d); detector coverage %.1f%%, %d detector triggers, %.1f%% dynamic overhead\n",
				h.ResidualSDC, h.PredictedResidual, orig,
				100*h.DetectorCoverage, h.DetectorTriggers, 100*h.ProtectionOverhead)
			if *dumpAsm {
				text, err := h.Asm()
				if err != nil {
					log.Fatal(err)
				}
				fmt.Println()
				fmt.Print(text)
			}
		}

		if *report {
			fmt.Println()
			if err := r.WriteReport(os.Stdout, *eps); err != nil {
				log.Fatal(err)
			}
		}
	}

	if *storePath != "" {
		if err := a.Store.Save(*storePath); err != nil {
			log.Fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("saved store %s (%d sections)\n", *storePath, len(a.Store.Sections))
		}
	}
	if shared != nil {
		// Close publishes the sections this run staged so other processes
		// sharing the directory can reuse them.
		if err := shared.Close(); err != nil {
			log.Fatal(err)
		}
		if !*jsonOut {
			st := shared.Stats()
			fmt.Printf("shared store: %d hits, %d misses, %d sections on disk\n", st.Hits, st.Misses, st.Sections)
		}
	}
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

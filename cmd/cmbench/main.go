// Command cmbench reproduces the paper's evaluation: every table and figure
// of §4 plus the microbenchmarks and ablations listed in DESIGN.md. Each
// experiment prints the rows/series the paper reports.
//
// Usage:
//
//	cmbench                      # run everything with the default (paper-sized) settings
//	cmbench -experiment fig3     # run a single experiment
//	cmbench -quick               # smaller sweeps, for a fast smoke run
//	cmbench -csv                 # emit adaptation traces (fig8-10, failure) as CSV instead of tables
//	cmbench -experiment failure  # adaptation under a scheduled bottleneck outage
//	cmbench -experiment perf     # benchmark the simulation core's hot loops
//	                             # and write a BENCH_<pr>.json perf snapshot
//	cmbench -trend               # per-benchmark trajectory across all
//	                             # committed BENCH_*.json snapshots
//	cmbench -trend -trend-csv TREND.csv  # same, plus the long-format CSV
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/apicost"
	"repro/internal/experiments"
)

func main() {
	os.Exit(run())
}

// run carries main's body so that deferred cleanup — stopping the CPU
// profile, writing the heap profile — still happens on failure exits; a
// bare os.Exit would truncate exactly the profile of the run being
// investigated.
func run() int {
	var (
		which = flag.String("experiment", "all",
			"experiment to run: all, fig3, fig4, fig5, fig6, table1, fig7, fig8, fig9, fig10, setup, fairness, ablations, failure, perf")
		quick    = flag.Bool("quick", false, "use reduced sweeps so the whole run finishes quickly")
		csv      = flag.Bool("csv", false, "print adaptation traces (fig8-10, failure) as CSV")
		perfOut  = flag.String("perfout", "BENCH_1.json", "output path for the perf snapshot written by -experiment perf")
		perfPR   = flag.Int("pr", 1, "PR number stamped into the perf snapshot")
		compare  = flag.String("compare", "", "older BENCH_*.json to diff the perf snapshot against (\"latest\" picks the highest-numbered committed one); >25% ns/op regressions fail")
		trend    = flag.Bool("trend", false, "print the per-benchmark trajectory across every committed BENCH_*.json and exit (no experiments run)")
		trendCSV = flag.String("trend-csv", "", "with -trend: also write the trajectory as long-format CSV (benchmark,pr,ns_op,allocs_op,bytes_op) to this file (\"-\" = stdout)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (taken after the experiments) to this file")
	)
	flag.Parse()

	if *trend {
		// Trajectory mode reads the committed snapshots next to -perfout; it
		// measures nothing itself, so it short-circuits the experiments.
		if err := runTrend(filepath.Dir(*perfOut), *trendCSV); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	runner := &benchRunner{quick: *quick, csv: *csv, perfOut: *perfOut, perfPR: *perfPR, compare: *compare}
	selected := strings.Split(strings.ToLower(*which), ",")
	ran := 0
	for _, name := range selected {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		ok, err := runner.run(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			flag.Usage()
			return 2
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		ran++
	}
	if ran == 0 {
		flag.Usage()
		return 2
	}
	return 0
}

type benchRunner struct {
	quick   bool
	csv     bool
	perfOut string
	perfPR  int
	compare string
}

// run executes one named experiment; ok is false for an unknown name.
func (b *benchRunner) run(name string) (ok bool, err error) {
	switch name {
	case "all":
		for _, n := range []string{"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "setup", "fairness", "ablations"} {
			if _, err := b.run(n); err != nil {
				return true, err
			}
		}
	case "fig3":
		cfg := experiments.Fig3Config{}
		if b.quick {
			cfg = experiments.Fig3Config{LossPercents: []float64{0, 1, 2, 5}, TransferBytes: 500_000, Trials: 1}
		}
		b.section(experiments.RunFig3(cfg).Table())
	case "fig4":
		cfg := experiments.Fig4Config{}
		if b.quick {
			cfg = experiments.Fig4Config{BufferCounts: []int{1_000, 10_000}}
		}
		b.section(experiments.RunFig4(cfg).Table())
	case "fig5":
		cfg := experiments.Fig5Config{}
		if b.quick {
			cfg.Fig4 = experiments.Fig4Config{BufferCounts: []int{1_000, 10_000}}
		}
		b.section(experiments.RunFig5(cfg).Table())
	case "fig6":
		b.section(experiments.RunFig6(experiments.Fig6Config{}).Table())
	case "table1":
		b.section(experiments.RunTable1(apicost.DefaultCosts()).Table())
	case "fig7":
		cfg := experiments.Fig7Config{}
		if b.quick {
			cfg = experiments.Fig7Config{Requests: 5}
		}
		b.section(experiments.RunFig7(cfg).Table())
	case "fig8":
		b.adaptation(experiments.Fig8Config())
	case "fig9":
		b.adaptation(experiments.Fig9Config())
	case "fig10":
		b.adaptation(experiments.Fig10Config())
	case "setup":
		b.section(experiments.RunConnSetup().Table())
	case "fairness":
		cfg := experiments.FairnessConfig{}
		if b.quick {
			cfg.Duration = 15 * time.Second
		}
		b.section(experiments.RunFairness(cfg).Table())
	case "ablations":
		b.section(experiments.RunAblationInitialWindow().Table())
		b.section(experiments.RunAblationBulkCalls(32).Table())
		b.section(experiments.RunAblationScheduler().Table())
	case "failure":
		// Beyond the paper (so not part of "all"): adaptation when the path
		// fails outright instead of merely congesting.
		cfg := experiments.FailureConfig{}
		if b.quick {
			cfg = experiments.FailureConfig{DownAt: 3 * time.Second, UpAt: 6 * time.Second, Duration: 15 * time.Second}
		}
		res, err := experiments.RunFailure(cfg)
		if err != nil {
			return true, fmt.Errorf("failure experiment: %w", err)
		}
		if b.csv {
			b.section(res.CSV())
		} else {
			b.section(res.Table())
		}
	case "perf":
		// Deliberately not part of "all": the perf snapshot is a tooling
		// artifact, not a paper experiment.
		if err := runPerf(b.perfOut, b.perfPR, b.compare); err != nil {
			return true, fmt.Errorf("perf snapshot failed: %w", err)
		}
	default:
		return false, nil
	}
	return true, nil
}

func (b *benchRunner) adaptation(cfg experiments.AdaptationConfig) {
	if b.quick {
		cfg.Duration = 15 * time.Second
	}
	res := experiments.RunAdaptation(cfg)
	if b.csv {
		b.section(res.CSV())
		return
	}
	b.section(res.Table())
}

func (b *benchRunner) section(body string) {
	fmt.Println(body)
	fmt.Println()
}

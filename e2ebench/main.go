// Command e2ebench is the repository's end-to-end benchmark. It drives the
// simulator through its public packages only, one closed-loop operation at a
// time, checks every operation's output, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	e2ebench --workload grid_serial --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics of untraced operations; --trace 1
// alternates untraced and traced operations and prints the per-layer
// breakdown of the median traced one (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// defaultSeed is the seed every workload's canned builder uses on its own.
const defaultSeed = 1

// minOps is the least number of measured operations per run, whatever
// --seconds says: medians need a few samples.
const minOps = 4

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 0, "input seed (0: the workload's default)")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1: print the per-layer metrics of a traced run instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	if *seed == 0 {
		*seed = defaultSeed
	}
	workers := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	b, err := w.newBench(*seed, workers)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# machine: %s\n", fingerprint())
	fmt.Fprintf(stdout, "# workload %s seed %d workers %d\n", w.name, *seed, workers)

	rep, err := measure(stdout, b, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure runs the workload for the given time and summarises it. With trace
// set it alternates untraced and traced operations.
func measure(out io.Writer, b bench, d time.Duration, trace bool) (*report, error) {
	rep := &report{Metrics: make(map[string]metric)}
	tally := func(st opStats, what string) {
		rep.Attempted++
		if len(st.problems) > 0 {
			rep.Failed++
			fmt.Fprintf(out, "# FAIL %s: %s\n", what, strings.Join(st.problems, "; "))
		}
	}
	runtime.GC()
	ref := b.prepare()
	tally(ref, "reference run")
	fmt.Fprintf(out, "# digest %s (reference output check %.3f s)\n", ref.digest, ref.check.Seconds())

	var plain, traced []opStats
	var kernels []float64
	deadline := time.Now().Add(d)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		// The calibration kernel and the operation each start from a
		// collected heap, outside the operation's timing.
		runtime.GC()
		k := kernel()
		kernels = append(kernels, k.Seconds())
		runtime.GC()
		tr := trace && i%2 == 1
		st := b.op(tr)
		fmt.Fprintf(out, "# op %d traced=%v wall %.6f setup %.6f run %.6f s, %d gc, kernel %.6f s\n",
			i, tr, st.wall.Seconds(), st.setup.Seconds(), st.run.Seconds(), st.gcCycles, k.Seconds())
		tally(st, fmt.Sprintf("op %d", i))
		if len(st.problems) > 0 {
			continue
		}
		if tr {
			traced = append(traced, st)
		} else {
			plain = append(plain, st)
		}
	}
	if len(plain) == 0 || (trace && len(traced) == 0) {
		return nil, errors.New("every operation failed")
	}
	if trace {
		fmt.Fprintf(out, "# traced digest %s (%d traced ops, all equal to the reference)\n", traced[0].digest, len(traced))
		l := layerMetrics(rep, plain, traced, ref)
		fmt.Fprintf(out, "# charges outside a receive whose event kind was ambiguous: %d\n", l.ambiguous)
	} else {
		speed := refKernel.Seconds() / medianOf(kernels)
		fmt.Fprintf(out, "# machine speed factor %.4f (reference kernel %v ÷ median kernel %.6f s over %d samples)\n",
			speed, refKernel, medianOf(kernels), len(kernels))
		endToEnd(out, rep, plain, ref, speed)
	}
	fmt.Fprintf(out, "# fail_frac %g (%d of %d ops failed)\n", float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	rep.Correct = rep.Failed == 0
	for _, m := range slices.Sorted(maps.Keys(rep.Metrics)) {
		fmt.Fprintf(out, "# %-26s %.6g %s\n", m, rep.Metrics[m].Value, rep.Metrics[m].Unit)
	}
	return rep, nil
}

// median of the values picked from each operation.
func median(ops []opStats, pick func(opStats) float64) float64 {
	v := make([]float64, len(ops))
	for i, o := range ops {
		v[i] = pick(o)
	}
	return medianOf(v)
}

func medianOf(v []float64) float64 {
	v = slices.Clone(v)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

const mb = 1 << 20

// endToEnd fills the untraced metrics: medians over the measured operations,
// with times scaled to the reference machine speed (see calibrate.go; the
// host times are printed too). live_heap_mb comes from the reference run,
// which forces a collection right after set-up; the measured operations
// never do.
func endToEnd(out io.Writer, rep *report, ops []opStats, ref opStats, speed float64) {
	set := func(name string, v float64) { rep.Metrics[name] = metric{v, endToEndUnits[name]} }
	wall := median(ops, func(o opStats) float64 { return o.wall.Seconds() })
	setup := median(ops, func(o opStats) float64 { return o.setup.Seconds() })
	run := median(ops, func(o opStats) float64 { return o.run.Seconds() })
	hops := median(ops, func(o opStats) float64 { return float64(o.hops) / o.run.Seconds() })
	fmt.Fprintf(out, "# host medians: wall %.6f s, setup %.6f s, run %.6f s, %.6g pkt hops/s (%d ops)\n",
		wall, setup, run, hops, len(ops))
	set("wall_s", wall*speed)
	set("setup_s", setup*speed)
	set("run_s", run*speed)
	set("pkt_hops_per_s", hops/speed)
	set("alloc_mb", median(ops, func(o opStats) float64 { return float64(o.allocBytes) / mb }))
	set("live_heap_mb", float64(ref.liveHeap)/mb)
}

// layerMetrics fills the per-layer metrics from the traced operation with
// the median traced run time, so that its self times add up exactly, and
// returns that breakdown. The faults check time is the reference run's: the
// one check every workload makes.
func layerMetrics(rep *report, plain, traced []opStats, ref opStats) *layerTimes {
	runS := func(o opStats) float64 { return o.layers.m["trace.run_s"] }
	sort.Slice(traced, func(i, j int) bool { return runS(traced[i]) < runS(traced[j]) })
	op := traced[(len(traced)-1)/2]
	l := op.layers
	wall := func(o opStats) float64 { return o.wall.Seconds() }
	extra := map[string]float64{
		"faults.check_s": ref.check.Seconds(),
		"gc.cycles":      float64(op.gcCycles),
		"gc.pause_s":     op.gcPause.Seconds(),
		"trace.overhead": median(traced, wall)/median(plain, wall) - 1,
		"unattributed_s": l.unattributed(),
	}
	for name, unit := range perLayerUnits {
		v, ok := extra[name]
		if !ok {
			v = l.m[name]
		}
		rep.Metrics[name] = metric{v, unit}
	}
	return l
}

// fingerprint identifies the machine a run was measured on.
func fingerprint() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

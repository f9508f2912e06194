package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// workload is one benchmark input. Each operation is a closed loop from one
// process: the next starts when the previous one has finished and checked.
type workload struct {
	name string
	// newBench builds the workload's inputs from the seed.
	newBench func(seed int64, workers int) (bench, error)
}

// The workloads stress different layers (see README.md for the map).
var workloads = []workload{
	{
		// The packet path (scheduler, links, forwarding, TCP, CM charging)
		// does almost all the work; set-up, routing and sharding are idle.
		name: "grid_serial",
		newBench: func(seed int64, _ int) (bench, error) {
			return &simBench{spec: scenario.DumbbellGrid(scenario.GridParams{Seed: seed})}, nil
		},
	},
	{
		// The distance-vector control plane under routing-message faults and
		// an uplink flap: routeproto and dynamics work that grid_serial never
		// does.
		name: "routeflap_serial",
		newBench: func(seed int64, _ int) (bench, error) {
			spec, err := scenario.RouteFlap(scenario.RouteFlapParams{Seed: seed})
			if err != nil {
				return nil, err
			}
			return &simBench{spec: spec}, nil
		},
	},
	{
		// The same spec on two shards: the 50 µs lookahead makes the shard
		// barrier the dominant cost, and every digest must match a serial
		// run. Not listed in BENCHMARK.json: its digest intermittently
		// differs from the serial one (see README.md).
		name: "routeflap_shards2",
		newBench: func(seed int64, workers int) (bench, error) {
			spec, err := scenario.RouteFlap(scenario.RouteFlapParams{Seed: seed})
			if err != nil {
				return nil, err
			}
			spec.Shards = min(2, workers)
			return &simBench{spec: spec}, nil
		},
	},
	{
		// 100k subscribers: set-up, hierarchical route install, memory, GC
		// and Finish over every host dominate; TCP and the CM carry short
		// web requests joining and leaving macroflows.
		name: "isp_100k",
		newBench: func(seed int64, _ int) (bench, error) {
			spec, err := scenario.ISP(scenario.ISPParams{Aggs: 16, AccessPerAgg: 25, HostsPerAccess: 250, Seed: seed})
			if err != nil {
				return nil, err
			}
			return &simBench{spec: spec}, nil
		},
	},
	{
		// The canned churn soak: libcm notify callbacks, layered UDP apps,
		// CM restarts, dynamics, the sweep runner and the faults checker.
		name: "churn_soak",
		newBench: func(seed int64, workers int) (bench, error) {
			c := faults.ChurnSoakCampaign()
			c.Seed = seed
			return &campaignBench{c: c, workers: workers}, nil
		},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// bench runs one workload's operations.
type bench interface {
	// prepare runs once before the measured loop: it fixes the reference
	// digest every operation must reproduce and measures the heap live after
	// set-up. Its run is checked like any operation.
	prepare() opStats
	op(traced bool) opStats
}

// opStats is one operation's measurements.
type opStats struct {
	wall, setup, run time.Duration
	allocBytes       uint64
	hops             int64
	liveHeap         uint64        // set by prepare only
	check            time.Duration // output check time inside the operation
	digest           string
	// problems lists why the operation failed; empty means it passed.
	problems []string
	layers   *layerTimes // traced operations only
	gcCycles uint32
	gcPause  time.Duration
}

func (s *opStats) fail(format string, args ...any) {
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// memDelta records the allocation and GC work between two readings taken
// around the operation.
func (s *opStats) memDelta(before, after runtime.MemStats) {
	s.allocBytes = after.TotalAlloc - before.TotalAlloc
	s.gcCycles = after.NumGC - before.NumGC
	s.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
}

// simRun is one simulation's result and its timed phases.
type simRun struct {
	res                            *scenario.Result
	build, start, runToEnd, finish time.Duration
	layers                         *layerTimes
}

// runSim builds and runs one simulation through the public scenario API,
// tracing it when asked. A panic is returned as an error.
func runSim(spec scenario.Spec, traced bool) (sr simRun, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	t0 := time.Now()
	sim, err := scenario.Build(spec)
	sr.build = time.Since(t0)
	if err != nil {
		return sr, err
	}
	var tr *tracer
	if traced {
		tr = installTracer(sim)
	}
	t1 := time.Now()
	if err := sim.Start(); err != nil {
		return sr, err
	}
	sr.start = time.Since(t1)
	if tr != nil {
		tr.setRunning(true)
	}
	t2 := time.Now()
	sim.RunToEnd()
	sr.runToEnd = time.Since(t2)
	if tr != nil {
		tr.setRunning(false)
	}
	t3 := time.Now()
	sr.res = sim.Finish()
	sr.finish = time.Since(t3)
	if tr != nil {
		sr.layers = tr.breakdown(sr.start, sr.runToEnd, sr.finish, sr.res)
	}
	return sr, nil
}

// digest hashes a Result's JSON with the Perf block stripped: Perf describes
// the execution, everything else the simulation.
func digest(res *scenario.Result) string {
	r := *res
	r.Perf = nil
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(&r); err != nil {
		return "unencodable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hops counts link hand-ups: every packet that finished serialisation, plus
// duplicates. The count is fixed by the Result, so a rate over it cannot be
// raised by simulating less.
func hops(res *scenario.Result) int64 {
	var n int64
	for _, l := range res.Links {
		n += int64(l.SentPackets + l.Duplicated)
	}
	return n
}

// checkResult applies the output checks besides the digest: the faults
// invariants and, under the routing protocol, convergence. Both are pure
// functions of the digested Result, so a simulation whose digest equals a
// checked reference passes them too; a single-simulation operation therefore
// compares digests only.
func checkResult(st *opStats, res *scenario.Result) {
	for _, v := range faults.Check(res) {
		st.fail("faults: %s", v)
	}
	if res.Routing != nil && !res.Routing.Converged {
		st.fail("routing did not converge")
	}
	if hops(res) == 0 {
		st.fail("no packet crossed a link")
	}
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// simBench runs one spec per operation.
type simBench struct {
	spec scenario.Spec
	ref  string
}

func (b *simBench) prepare() opStats {
	var st opStats
	if b.spec.Shards > 1 {
		// A sharded run must reproduce the serial run's bytes.
		serial := b.spec
		serial.Shards = 0
		res, err := scenario.Run(serial)
		if err != nil {
			st.fail("serial reference: %v", err)
			return st
		}
		b.ref = digest(res)
	}
	sim, err := scenario.Build(b.spec)
	if err != nil {
		st.fail("build: %v", err)
		return st
	}
	runtime.GC()
	st.liveHeap = memStats().HeapAlloc
	if err := sim.Start(); err != nil {
		st.fail("start: %v", err)
		return st
	}
	sim.RunToEnd()
	res := sim.Finish()
	t := time.Now()
	checkResult(&st, res)
	st.check = time.Since(t)
	st.digest = digest(res)
	if b.ref == "" {
		b.ref = st.digest
	} else if st.digest != b.ref {
		st.fail("sharded digest %s != serial digest %s", st.digest, b.ref)
	}
	return st
}

func (b *simBench) op(traced bool) opStats {
	st, res := b.run(traced)
	if res != nil {
		b.verify(&st, res)
	}
	return st
}

// run times one simulation; the Result is nil when it failed.
func (b *simBench) run(traced bool) (opStats, *scenario.Result) {
	var st opStats
	ms0 := memStats()
	sr, err := runSim(b.spec, traced)
	ms1 := memStats()
	st.setup = sr.build
	st.run = sr.start + sr.runToEnd + sr.finish
	st.wall = st.setup + st.run
	st.memDelta(ms0, ms1)
	st.layers = sr.layers
	if err != nil {
		st.fail("%v", err)
		return st, nil
	}
	return st, sr.res
}

// verify compares a Result with the reference digest.
func (b *simBench) verify(st *opStats, res *scenario.Result) {
	st.hops = hops(res)
	st.digest = digest(res)
	if st.digest != b.ref {
		st.fail("digest %s != reference %s", st.digest, b.ref)
	}
}

// campaignBench runs a whole sweep campaign per operation.
type campaignBench struct {
	c       sweep.Campaign
	workers int
	ref     string
}

// campaignDigest hashes the replicate digests in expansion order.
func campaignDigest(results []*scenario.Result) string {
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintln(h, digest(r))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (b *campaignBench) prepare() opStats {
	st := b.op(false)
	if points, err := b.c.Expand(); err == nil {
		runtime.GC()
		st.liveHeap = memStats().HeapAlloc
		runtime.KeepAlive(points)
	}
	return st
}

func (b *campaignBench) op(traced bool) opStats {
	var st opStats
	ms0 := memStats()
	t0 := time.Now()
	points, err := b.c.Expand()
	st.setup = time.Since(t0)
	if err != nil {
		st.fail("expand: %v", err)
		return st
	}
	var results []*scenario.Result
	var check time.Duration
	if traced {
		results, st.layers, check = b.runTraced(&st, points)
		st.run = time.Duration(st.layers.m["trace.run_s"] * float64(time.Second))
	} else {
		t1 := time.Now()
		cr, err := b.c.Run(scenario.Runner{Parallel: b.workers})
		st.run = time.Since(t1)
		if err != nil {
			st.fail("run: %v", err)
			return st
		}
		t2 := time.Now()
		for _, v := range faults.CheckCampaign(cr) {
			st.fail("faults: %s", v)
		}
		check = time.Since(t2)
		for _, pt := range cr.Points {
			if pt.Failed > 0 {
				st.fail("point %d: %d replicates failed: %v", pt.Index, pt.Failed, pt.Errors)
			}
			results = append(results, pt.Results...)
		}
	}
	ms1 := memStats()
	st.check = check
	st.wall = st.setup + st.run + check
	st.memDelta(ms0, ms1)
	for _, r := range results {
		st.hops += hops(r)
	}
	st.digest = campaignDigest(results)
	if b.ref == "" {
		b.ref = st.digest
	} else if st.digest != b.ref {
		st.fail("digest %s != reference %s", st.digest, b.ref)
	}
	return st
}

// runTraced executes the expanded specs itself, traced, on the same number
// of workers as the untraced Campaign.Run, and checks each result.
func (b *campaignBench) runTraced(st *opStats, points []sweep.Point) ([]*scenario.Result, *layerTimes, time.Duration) {
	var specs []scenario.Spec
	for _, pt := range points {
		specs = append(specs, pt.Specs...)
	}
	runs := make([]simRun, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				runs[i], errs[i] = runSim(specs[i], true)
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(t0)

	total := &layerTimes{m: make(map[string]float64)}
	var busy time.Duration
	var results []*scenario.Result
	t1 := time.Now()
	for i, r := range runs {
		if errs[i] != nil {
			st.fail("spec %d: %v", i, errs[i])
			continue
		}
		busy += r.build + r.start + r.runToEnd + r.finish
		r.layers.m["scenario.build_s"] = r.build.Seconds()
		total.add(r.layers)
		checkResult(st, r.res)
		results = append(results, r.res)
	}
	check := time.Since(t1)
	n := float64(b.workers)
	total.scale(n)
	total.m["scenario.shards"] = 1
	total.m["trace.run_s"] = wall.Seconds()
	total.m["sweep.idle_s"] = (wall.Seconds()*n - busy.Seconds()) / n
	total.m["sweep.parallel_eff"] = busy.Seconds() / (wall.Seconds() * n)
	return results, total, check
}

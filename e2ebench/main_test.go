package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sweep"
)

// The tests run the benchmark's machinery on simulations small enough to
// take well under a second each.

func tinyGridSpec(shards int) scenario.Spec {
	spec := scenario.DumbbellGrid(scenario.GridParams{Rows: 1, Cols: 2, Duration: 500 * time.Millisecond})
	spec.Shards = shards
	return spec
}

func tinyGrid() *simBench { return &simBench{spec: tinyGridSpec(0)} }

func tinyRouteFlap(t *testing.T) scenario.Spec {
	t.Helper()
	spec, err := scenario.RouteFlap(scenario.RouteFlapParams{Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyCampaign() *campaignBench {
	base := scenario.Churn(scenario.ChurnParams{Duration: 2 * time.Second})
	return &campaignBench{workers: 2, c: sweep.Campaign{
		Name: "tiny-churn", Base: &base, Replicates: 1,
		Axes: []sweep.Axis{{Param: "event[0].drop_rate", Values: []float64{0, 0.1}}},
	}}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func unitsOf(list []struct{ Name, Unit string }) map[string]string {
	m := make(map[string]string)
	for _, e := range list {
		m[e.Name] = e.Unit
	}
	return m
}

func sameUnits(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: %s listed but not printed", what, name)
		case m.Unit != unit:
			t.Errorf("%s: %s printed in %q, listed in %q", what, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", what, name, m.Value)
		}
	}
}

func TestBenchmarkFileNamesKnownWorkloads(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range f.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(unitsOf(f.EndToEnd)) != len(endToEndUnits) || len(unitsOf(f.PerLayer)) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, the program knows %d+%d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEndUnits), len(perLayerUnits))
	}
}

// Every metric printed, untraced and traced, is the one BENCHMARK.json
// lists, with the same unit.
func TestPrintedMetricsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, trace := range []bool{false, true} {
		rep, err := measure(io.Discard, tinyGrid(), 0, trace)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted != minOps+1 {
			t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d", trace, rep.Correct, rep.Failed, rep.Attempted)
		}
		if trace {
			sameUnits(t, "per_layer", rep.Metrics, unitsOf(f.PerLayer))
		} else {
			sameUnits(t, "end_to_end", rep.Metrics, unitsOf(f.EndToEnd))
		}
	}
}

// Tracing wraps hosts and notifiers but only observes: the traced Result has
// the untraced digest, and a sharded run has the serial digest. The layer
// self times account for the traced run time. The sharded case uses the
// grid: sharded protocol-mode routing has a data race of its own (see
// README.md) that would make this test flaky.
func TestTracingKeepsDigest(t *testing.T) {
	cases := []struct {
		name string
		spec scenario.Spec
	}{
		{"grid", tinyGridSpec(0)},
		{"routeflap", tinyRouteFlap(t)},
		{"grid-sharded", tinyGridSpec(2)},
	}
	serial, err := runSim(tinyGridSpec(0), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		plain, err := runSim(c.spec, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runSim(c.spec, true)
		if err != nil {
			t.Fatal(err)
		}
		if d, td := digest(plain.res), digest(traced.res); d != td {
			t.Errorf("%s: traced digest %s != untraced %s", c.name, td, d)
		}
		if c.spec.Shards > 1 {
			if d, sd := digest(plain.res), digest(serial.res); d != sd {
				t.Errorf("%s: sharded digest %s != serial %s", c.name, d, sd)
			}
			if l := traced.layers.m; l["scenario.shards"] != 2 || l["scenario.shard_windows"] == 0 {
				t.Errorf("%s: %v shards, %v windows, want a sharded run", c.name, l["scenario.shards"], l["scenario.shard_windows"])
			}
		}
		checkBreakdown(t, c.name, traced.layers)
	}
}

// checkBreakdown checks that the summands are sane and that little of the
// run is left unattributed (only untraced event kinds land there).
func checkBreakdown(t *testing.T, name string, l *layerTimes) {
	t.Helper()
	run := l.m["trace.run_s"]
	if run <= 0 || l.m["simtime.events"] == 0 {
		t.Fatalf("%s: run %v s, %v events", name, run, l.m["simtime.events"])
	}
	sum := l.unattributed()
	for _, s := range summands {
		sum += l.m[s]
	}
	if math.Abs(sum-run) > 1e-9 {
		t.Errorf("%s: summands add up to %v s, run took %v s", name, sum, run)
	}
	if u := l.unattributed(); math.Abs(u) > 0.1*run {
		t.Errorf("%s: unattributed %v s of %v s", name, u, run)
	}
	for _, layer := range []string{"simtime.self_s", "netsim.transmit_s", "node.forward_s", "tcp.rx_s", "cm.charge_s"} {
		if l.m[layer] <= 0 {
			t.Errorf("%s: %s = %v", name, layer, l.m[layer])
		}
	}
}

// perturbedBench changes every measured Result before it is checked.
type perturbedBench struct{ *simBench }

func (p perturbedBench) op(traced bool) opStats {
	st, res := p.run(traced)
	res.Links[0].SentPackets++
	p.verify(&st, res)
	return st
}

func TestPerturbedResultFails(t *testing.T) {
	rep, err := measure(io.Discard, perturbedBench{tinyGrid()}, 0, false)
	if err == nil {
		t.Fatalf("every op was perturbed, yet measure reported %+v", rep)
	}
	b := perturbedBench{tinyGrid()}
	ref := b.prepare()
	if len(ref.problems) != 0 {
		t.Fatal(ref.problems)
	}
	if st := b.op(false); len(st.problems) == 0 {
		t.Error("a perturbed Result passed the digest check")
	}
}

// A mix of good and perturbed operations shows in attempted and failed.
type flakyBench struct {
	perturbedBench
	n int
}

func (f *flakyBench) op(traced bool) opStats {
	f.n++
	if f.n%2 == 0 {
		return f.perturbedBench.op(traced)
	}
	return f.simBench.op(traced)
}

func TestFailFracCountsPerturbedOps(t *testing.T) {
	rep, err := measure(io.Discard, &flakyBench{perturbedBench: perturbedBench{tinyGrid()}}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed != minOps/2 || rep.Attempted != minOps+1 {
		t.Errorf("correct=%v failed=%d attempted=%d, want %d of %d failed", rep.Correct, rep.Failed, rep.Attempted, minOps/2, minOps+1)
	}
}

// The traced campaign runs the expanded specs itself; its replicate digests
// must equal Campaign.Run's.
func TestCampaignTracedMatchesUntraced(t *testing.T) {
	b := tinyCampaign()
	if ref := b.prepare(); len(ref.problems) != 0 {
		t.Fatal(ref.problems)
	}
	st := b.op(true)
	if len(st.problems) != 0 {
		t.Fatal(st.problems)
	}
	l := st.layers
	if eff := l.m["sweep.parallel_eff"]; eff <= 0 || eff > 1 {
		t.Errorf("parallel efficiency %v", eff)
	}
	for _, layer := range []string{"scenario.build_s", "udp.rx_s", "libcm.notify_s", "dynamics.event_s"} {
		if l.m[layer] <= 0 {
			t.Errorf("%s = %v", layer, l.m[layer])
		}
	}
	checkBreakdown(t, "campaign", l)
}

func TestMedian(t *testing.T) {
	ops := func(vs ...float64) []opStats {
		out := make([]opStats, len(vs))
		for i, v := range vs {
			out[i].wall = time.Duration(v)
		}
		return out
	}
	wall := func(o opStats) float64 { return float64(o.wall) }
	for _, c := range []struct {
		in   []opStats
		want float64
	}{{ops(3, 1, 2), 2}, {ops(4, 1, 3, 2), 2.5}} {
		if got := median(c.in, wall); got != c.want {
			t.Errorf("median = %v, want %v", got, c.want)
		}
	}
}

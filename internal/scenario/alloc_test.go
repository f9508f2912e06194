package scenario

import (
	"testing"
)

// ispSpec is a small ISP access tree with hostsPerAccess subscribers under
// each of its 2×5 access routers and four web-mix clients.
func ispSpec(t *testing.T, hostsPerAccess int) Spec {
	t.Helper()
	spec, err := ISP(ISPParams{Aggs: 2, AccessPerAgg: 5, HostsPerAccess: hostsPerAccess, Clients: 4})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestFinishAllocsIndependentOfTopologySize: Finish allocates each Result
// slice once at its final length, so its allocation count is the same for a
// topology ten times larger.
func TestFinishAllocsIndependentOfTopologySize(t *testing.T) {
	finishAllocs := func(hostsPerAccess int) float64 {
		sim := MustBuild(ispSpec(t, hostsPerAccess))
		if err := sim.Start(); err != nil {
			t.Fatal(err)
		}
		sim.RunToEnd()
		return testing.AllocsPerRun(5, func() { sim.Finish() })
	}
	small, large := finishAllocs(10), finishAllocs(100)
	if large != small {
		t.Errorf("Finish allocations grow with the topology: %v at 100 hosts, %v at 1000", small, large)
	}
}

// TestBuildAllocsPerLink bounds Build's heap objects per spec link on an ISP
// tree. A spec link is a duplex: its two Links, the Duplex, the base name and
// the shared direction-name string, plus (in a tree) about one host. The
// bound leaves a little headroom over the measured 6.07 and fails if
// per-link or per-host state turns eager again (a queue ring, a closure or a
// map per link or host each add at least one).
func TestBuildAllocsPerLink(t *testing.T) {
	spec := ispSpec(t, 200)
	allocs := testing.AllocsPerRun(3, func() { MustBuild(spec) })
	perLink := allocs / float64(len(spec.Links))
	t.Logf("Build: %.0f allocations for %d links (%.2f per link)", allocs, len(spec.Links), perLink)
	if perLink > 6.25 {
		t.Errorf("Build allocates %.2f objects per link, want at most 6.25", perLink)
	}
}

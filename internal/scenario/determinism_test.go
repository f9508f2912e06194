package scenario

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestSerialAndParallelRunsAreByteIdentical is the determinism acceptance
// check: each simulation owns its scheduler and seeded random sources, so a
// batch fanned across 8 workers must produce exactly the results of a serial
// run — compared both structurally and on the JSON wire encoding. Every
// registered scenario is a parallel subtest running its spec twice on each
// runner, so different simulations also interleave on the test's own
// workers; the "mixed" subtest hands one runner a batch of different
// scenarios and lengths, so results must come back in spec order however
// the workers finish.
func TestSerialAndParallelRunsAreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered scenario twice, twice over")
	}
	lookup := func(t *testing.T, name string) Spec {
		t.Helper()
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	for _, name := range List() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := lookup(t, name)
			compareRunners(t, name, []Spec{spec, spec})
		})
	}
	t.Run("mixed", func(t *testing.T) {
		t.Parallel()
		var specs []Spec
		for i, name := range []string{"dumbbell", "p2p", "star", "parkinglot"} {
			spec := lookup(t, name)
			short := spec
			short.Duration = spec.Duration / time.Duration(i+2)
			specs = append(specs, spec, short)
		}
		compareRunners(t, "mixed", specs)
	})
}

// compareRunners runs specs on a serial and an 8-worker runner and fails,
// naming the case, unless both return the same outcomes in the same order.
func compareRunners(t *testing.T, name string, specs []Spec) {
	t.Helper()
	serial := Runner{Parallel: 1}.RunAll(specs)
	parallel := Runner{Parallel: 8}.RunAll(specs)
	for i := range serial {
		if serial[i].Err != "" || parallel[i].Err != "" {
			t.Fatalf("%s: outcome %d errored: serial=%q parallel=%q", name, i, serial[i].Err, parallel[i].Err)
		}
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("%s: serial and parallel result structs differ", name)
	}
	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if string(sj) != string(pj) {
		t.Fatalf("%s: serial and parallel JSON encodings differ", name)
	}
}

// TestRepeatedRunsAreIdentical pins the weaker property the one above builds
// on: running the same spec twice in the same process gives the same result.
func TestRepeatedRunsAreIdentical(t *testing.T) {
	spec, err := Lookup("dumbbell")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs of the same spec differ")
	}
}

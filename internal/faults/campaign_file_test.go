package faults

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sweep"
)

// TestChurnSoakCampaignFileMatchesDefinition pins
// examples/campaigns/churn-soak.json to the canonical Go definition: `make
// soak-smoke` must run exactly the sweep ChurnSoakCampaign defines.
// Regenerate the file with `go run ./tools/gencampaign` after changing it.
func TestChurnSoakCampaignFileMatchesDefinition(t *testing.T) {
	data, err := os.ReadFile("../../examples/campaigns/churn-soak.json")
	if err != nil {
		t.Fatal(err)
	}
	var fromFile sweep.Campaign
	if err := json.Unmarshal(data, &fromFile); err != nil {
		t.Fatal(err)
	}
	want := ChurnSoakCampaign()
	if !reflect.DeepEqual(fromFile, want) {
		t.Fatalf("examples/campaigns/churn-soak.json drifted from ChurnSoakCampaign:\nfile: %+v\ncode: %+v", fromFile, want)
	}
	filePoints, err := fromFile.Expand()
	if err != nil {
		t.Fatal(err)
	}
	codePoints, err := want.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(filePoints, codePoints) {
		t.Fatal("campaign file expands differently from the Go definition")
	}
}

// TestCannedCampaignsValidate: every spec every shipped campaign expands to
// passes Spec.Validate, so tightening validation cannot silently break a
// campaign that CI or the benchmark runs.
func TestCannedCampaignsValidate(t *testing.T) {
	files, err := filepath.Glob("../../examples/campaigns/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no campaign files found (%v)", err)
	}
	camps := map[string]sweep.Campaign{"ChurnSoakCampaign": ChurnSoakCampaign()}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var c sweep.Campaign
		if err := json.Unmarshal(data, &c); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		camps[f] = c
	}
	for name, c := range camps {
		points, err := c.Expand()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, pt := range points {
			for i := range pt.Specs {
				if err := pt.Specs[i].Validate(); err != nil {
					t.Errorf("%s point %d replicate %d: %v", name, pt.Index, i, err)
				}
			}
		}
	}
}

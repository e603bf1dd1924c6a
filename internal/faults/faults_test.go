package faults

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"amrproxyio/internal/iosim"
)

func TestPlanJSONRoundTrip(t *testing.T) {
	p := &Plan{
		Events: []Event{
			{Kind: KindTargetOutage, Start: 0.5, End: 2, Target: 3},
			{Kind: KindNICDegrade, Start: 1, End: 4, Node: -1, Factor: 0.25},
			{Kind: KindBBLoss, Start: 2, Node: 1},
			{Kind: KindRankInterrupt, Start: 3, Rank: 7},
		},
		MTBFSeconds:  120,
		Seed:         42,
		RetryTimeout: 0.2,
		RetryBackoff: 0.05,
		MaxRetries:   5,
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip changed the plan:\n got %+v\nwant %+v", got, p)
	}
}

func TestPlanValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string // substring of the rejection message
	}{
		{"unknown kind", Plan{Events: []Event{{Kind: "disk-fire", Start: 0}}}, "unknown fault kind"},
		{"negative start", Plan{Events: []Event{{Kind: KindBBLoss, Start: -1}}}, "negative start"},
		{"inverted window", Plan{Events: []Event{{Kind: KindTargetOutage, Start: 2, End: 1}}}, "end 1 <= start 2"},
		{"empty window", Plan{Events: []Event{{Kind: KindTargetOutage, Start: 2, End: 2}}}, "end 2 <= start 2"},
		{"zero factor", Plan{Events: []Event{{Kind: KindNICDegrade, Start: 0, Factor: 0}}}, "factor 0 outside"},
		{"factor above one", Plan{Events: []Event{{Kind: KindNICDegrade, Start: 0, Factor: 1.5}}}, "factor 1.5 outside"},
		{"negative rank", Plan{Events: []Event{{Kind: KindRankInterrupt, Start: 0, Rank: -2}}}, "negative rank"},
		{"negative mtbf", Plan{MTBFSeconds: -1}, "negative mtbf_seconds"},
		{"negative retry timeout", Plan{RetryTimeout: -0.1}, "negative retry knobs"},
		{"negative retry backoff", Plan{RetryBackoff: -0.1}, "negative retry knobs"},
		{"negative max retries", Plan{MaxRetries: -1}, "negative retry knobs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}

	valid := []Plan{
		{},
		{Events: []Event{{Kind: KindTargetOutage, Start: 0}}},          // open-ended
		{Events: []Event{{Kind: KindNICDegrade, Start: 0, Factor: 1}}}, // no-op factor
		{MTBFSeconds: 60, Seed: 3},
	}
	for i, p := range valid {
		if err := p.Validate(); err != nil {
			t.Errorf("valid plan %d rejected: %v", i, err)
		}
	}
	if err := (*Plan)(nil).Validate(); err != nil {
		t.Errorf("nil plan rejected: %v", err)
	}
}

func TestParseRejectsMalformedJSON(t *testing.T) {
	for _, bad := range []string{
		`{`,                         // truncated
		`{"events": [{"kind": 3}]}`, // wrong type
		`{"evnets": []}`,            // typo'd field
		`{"events":[{"kind":"bogus","start":0}]}`, // unknown kind
		// A trailing plan must not be dropped unread.
		`{"events":[]} {"events":[{"kind":"target-outage","start":0,"end":1,"target":0}]}`,
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("Parse(%q) accepted malformed input", bad)
		}
	}
}

func TestLoadInlineAndFile(t *testing.T) {
	const src = `{"events":[{"kind":"target-outage","start":1,"end":2,"target":0}]}`
	inline, err := Load("  " + src)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inline, fromFile) {
		t.Fatalf("inline %+v != file %+v", inline, fromFile)
	}
	if p, err := Load(""); p != nil || err != nil {
		t.Fatalf("Load(\"\") = %+v, %v, want nil, nil", p, err)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("Load accepted a missing file")
	}
}

func TestZeroPlanYieldsNoInjector(t *testing.T) {
	var nilPlan *Plan
	if inj := nilPlan.Injector(iosim.Topology{}); inj != nil {
		t.Fatal("nil plan built an injector")
	}
	if inj := (&Plan{}).Injector(iosim.Topology{}); inj != nil {
		t.Fatal("empty plan built an injector")
	}
	if inj := DefaultPlan().Injector(iosim.Topology{}); inj == nil {
		t.Fatal("DefaultPlan built no injector")
	}
	if err := DefaultPlan().Validate(); err != nil {
		t.Fatalf("DefaultPlan invalid: %v", err)
	}
}

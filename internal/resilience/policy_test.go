package resilience

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPolicyZero(t *testing.T) {
	var nilPolicy *Policy
	if !nilPolicy.Zero() {
		t.Error("nil policy not zero")
	}
	if !(&Policy{}).Zero() {
		t.Error("empty policy not zero")
	}
	// Knobs alone enable nothing: only the three booleans arm policies.
	if !(&Policy{QuarantineThreshold: 5, ShedPressure: 0.5}).Zero() {
		t.Error("knobs-only policy not zero")
	}
	if (&Policy{Quarantine: true}).Zero() {
		t.Error("armed policy reported zero")
	}
	if DefaultPolicy().Zero() {
		t.Error("default policy reported zero")
	}
}

func TestPolicyValidate(t *testing.T) {
	bad := []Policy{
		{MinCheckpointSeconds: -1},
		{QuarantineThreshold: -2},
		{QuarantineCooldown: -0.5},
		{ShedPressure: -0.1},
		{ShedPressure: 1.5},
		{MaxShedStreak: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad policy %d validated: %+v", i, p)
		}
	}
	var nilPolicy *Policy
	if err := nilPolicy.Validate(); err != nil {
		t.Errorf("nil policy rejected: %v", err)
	}
	if err := DefaultPolicy().Validate(); err != nil {
		t.Errorf("default policy rejected: %v", err)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"quarantine": true, "treshold": 3}`)); err == nil {
		t.Error("typo field accepted")
	}
	if _, err := Parse([]byte(`{"bogus": true}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Parse([]byte(`{"quarantine": true} {"quarantine": false}`)); err == nil {
		t.Error("trailing policy accepted")
	}
	p, err := Parse([]byte(`{"quarantine": true, "quarantine_threshold": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Quarantine || p.QuarantineThreshold != 3 {
		t.Errorf("parsed policy wrong: %+v", p)
	}
}

func TestLoad(t *testing.T) {
	if p, err := Load(""); err != nil || p != nil {
		t.Errorf("empty arg: %v %v", p, err)
	}
	for _, arg := range []string{"default", "on"} {
		p, err := Load(arg)
		if err != nil {
			t.Fatal(err)
		}
		if !p.AdaptiveCheckpoint || !p.Quarantine || !p.DegradedOutput {
			t.Errorf("Load(%q) = %+v, want all policies on", arg, p)
		}
	}
	p, err := Load(`{"degraded_output": true, "shed_pressure": 0.2}`)
	if err != nil {
		t.Fatal(err)
	}
	if !p.DegradedOutput || p.ShedPressure != 0.2 {
		t.Errorf("inline policy wrong: %+v", p)
	}
	if _, err := Load(`{"shed_pressure": 7}`); err == nil {
		t.Error("out-of-range inline policy accepted")
	}

	path := filepath.Join(t.TempDir(), "policy.json")
	if err := os.WriteFile(path, []byte(`{"adaptive_checkpoint": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !p.AdaptiveCheckpoint || p.Quarantine {
		t.Errorf("file policy wrong: %+v", p)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil ||
		!strings.Contains(err.Error(), "reading policy") {
		t.Errorf("missing file: %v", err)
	}
}

func TestKnobDefaults(t *testing.T) {
	p := &Policy{Quarantine: true, DegradedOutput: true}
	if got := p.quarantineThreshold(); got != DefaultQuarantineThreshold {
		t.Errorf("threshold default = %d", got)
	}
	if got := p.quarantineCooldown(); got != DefaultQuarantineCooldown {
		t.Errorf("cooldown default = %g", got)
	}
	if got := p.shedPressure(); got != DefaultShedPressure {
		t.Errorf("pressure default = %g", got)
	}
	if got := p.maxShedStreak(); got != DefaultMaxShedStreak {
		t.Errorf("streak default = %d", got)
	}
	p = &Policy{Quarantine: true, QuarantineThreshold: 7, QuarantineCooldown: 3, ShedPressure: 0.9, MaxShedStreak: 4}
	if p.quarantineThreshold() != 7 || p.quarantineCooldown() != 3 || p.shedPressure() != 0.9 || p.maxShedStreak() != 4 {
		t.Errorf("explicit knobs not honored: %+v", p)
	}
}

package resilience

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Default policy knobs (Policy zero values select these when the
// corresponding policy is enabled).
const (
	// DefaultQuarantineThreshold is the number of observed unmitigated
	// retry storms on one target before its circuit breaker opens.
	DefaultQuarantineThreshold = 2
	// DefaultQuarantineCooldown is the simulated seconds a breaker stays
	// open once tripped.
	DefaultQuarantineCooldown = 30
	// DefaultShedPressure is the fault-pressure fraction (critical-path
	// fault seconds per simulated second, over the last observation
	// window) above which degraded-mode output sheds plot bursts.
	DefaultShedPressure = 0.35
	// DefaultMaxShedStreak caps consecutive shed plots: after this many,
	// the next plot is forced through so output never starves entirely.
	DefaultMaxShedStreak = 1
)

// Policy selects and tunes the closed-loop mitigation policies the
// resilience Engine applies between bursts. The zero value (and nil)
// disables everything: no engine is built and the run stays
// byte-identical to the policy-free path (property-test-pinned).
//
// Policies compose: any subset of the three booleans may be enabled.
// Policy round-trips through JSON on campaign.Case.Mitigate and the
// -mitigate CLI flags; unknown fields are rejected (Parse).
type Policy struct {
	// AdaptiveCheckpoint retimes checkpoints to the Young/Daly interval
	// computed from the online MTBF estimate instead of the fixed step
	// cadence. No checkpoint is retimed before the first observed
	// interrupt (no evidence, no estimate).
	AdaptiveCheckpoint bool `json:"adaptive_checkpoint,omitempty"`
	// MinCheckpointSeconds floors the adaptive interval so a tiny MTBF
	// estimate cannot trigger a checkpoint storm.
	MinCheckpointSeconds float64 `json:"min_checkpoint_seconds,omitempty"`

	// Quarantine opens a per-target circuit breaker after
	// QuarantineThreshold observed retry storms: quarantined writes fail
	// over immediately instead of re-paying the storm, and the next
	// remap routes around the quarantined targets.
	Quarantine bool `json:"quarantine,omitempty"`
	// QuarantineThreshold is the storms-per-target trip count; 0 selects
	// DefaultQuarantineThreshold.
	QuarantineThreshold int `json:"quarantine_threshold,omitempty"`
	// QuarantineCooldown is the breaker-open window in simulated
	// seconds; 0 selects DefaultQuarantineCooldown.
	QuarantineCooldown float64 `json:"quarantine_cooldown,omitempty"`

	// DegradedOutput sheds plotfile bursts (never checkpoints) while
	// fault pressure is above ShedPressure, recording the shed bytes.
	DegradedOutput bool `json:"degraded_output,omitempty"`
	// ShedPressure is the pressure threshold in (0, 1]; 0 selects
	// DefaultShedPressure.
	ShedPressure float64 `json:"shed_pressure,omitempty"`
	// MaxShedStreak caps consecutive sheds; 0 selects
	// DefaultMaxShedStreak.
	MaxShedStreak int `json:"max_shed_streak,omitempty"`
}

// Zero reports whether the policy enables nothing: a nil or zero policy
// builds no engine and leaves every run path untouched.
func (p *Policy) Zero() bool {
	return p == nil || (!p.AdaptiveCheckpoint && !p.Quarantine && !p.DegradedOutput)
}

func (p *Policy) quarantineThreshold() int {
	if p.QuarantineThreshold > 0 {
		return p.QuarantineThreshold
	}
	return DefaultQuarantineThreshold
}

func (p *Policy) quarantineCooldown() float64 {
	if p.QuarantineCooldown > 0 {
		return p.QuarantineCooldown
	}
	return DefaultQuarantineCooldown
}

func (p *Policy) shedPressure() float64 {
	if p.ShedPressure > 0 {
		return p.ShedPressure
	}
	return DefaultShedPressure
}

func (p *Policy) maxShedStreak() int {
	if p.MaxShedStreak > 0 {
		return p.MaxShedStreak
	}
	return DefaultMaxShedStreak
}

// Validate rejects malformed policies the way faults.Plan.Validate
// rejects malformed plans: negative knobs and out-of-range thresholds.
func (p *Policy) Validate() error {
	if p == nil {
		return nil
	}
	if p.MinCheckpointSeconds < 0 {
		return fmt.Errorf("resilience: negative min_checkpoint_seconds %g", p.MinCheckpointSeconds)
	}
	if p.QuarantineThreshold < 0 {
		return fmt.Errorf("resilience: negative quarantine_threshold %d", p.QuarantineThreshold)
	}
	if p.QuarantineCooldown < 0 {
		return fmt.Errorf("resilience: negative quarantine_cooldown %g", p.QuarantineCooldown)
	}
	if p.ShedPressure < 0 || p.ShedPressure > 1 {
		return fmt.Errorf("resilience: shed_pressure %g outside [0, 1]", p.ShedPressure)
	}
	if p.MaxShedStreak < 0 {
		return fmt.Errorf("resilience: negative max_shed_streak %d", p.MaxShedStreak)
	}
	return nil
}

// Parse decodes and validates a JSON policy. Unknown fields are
// rejected so typos ("treshold") fail loudly instead of mitigating
// nothing, and so is data after the policy, which would otherwise be
// dropped unread.
func Parse(data []byte) (*Policy, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Policy
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("resilience: malformed policy JSON: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("resilience: malformed policy JSON: trailing data after the policy")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load resolves a -mitigate CLI argument: empty disables mitigation,
// "default" (or "on") selects DefaultPolicy, an inline JSON object
// (first non-space byte '{') is parsed directly, anything else is a
// path to a JSON policy file.
func Load(arg string) (*Policy, error) {
	s := strings.TrimSpace(arg)
	if s == "" {
		return nil, nil
	}
	if s == "default" || s == "on" {
		return DefaultPolicy(), nil
	}
	if strings.HasPrefix(s, "{") {
		return Parse([]byte(s))
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("resilience: reading policy %s: %w", arg, err)
	}
	return Parse(data)
}

// DefaultPolicy enables all three mitigation policies with default
// knobs — what `-mitigate default` and the mitigation sweeps use.
func DefaultPolicy() *Policy {
	return &Policy{
		AdaptiveCheckpoint: true,
		Quarantine:         true,
		DegradedOutput:     true,
	}
}

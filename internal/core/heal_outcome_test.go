package core

import (
	"errors"
	"testing"
)

// TestHealOutcome pins the one fold every scrub scheduler counts by.
func TestHealOutcome(t *testing.T) {
	flagged := &DetectionReport{Findings: []LayerFinding{{Layer: 2}}}
	clean := &DetectionReport{}
	healed := &RecoveryReport{Results: []RecoveryResult{{Layer: 2, Status: Recovered}}}
	partial := &RecoveryReport{Results: []RecoveryResult{{Layer: 2, Status: Recovered}, {Layer: 5, Status: Approximate}}}
	boom := errors.New("engine failure")
	cases := []struct {
		name                string
		det                 *DetectionReport
		rec                 *RecoveryReport
		err                 error
		detected, recovered bool
	}{
		{"clean pass", clean, &RecoveryReport{}, nil, false, true},
		{"detection failed", nil, nil, boom, false, false},
		{"healed", flagged, healed, nil, true, true},
		{"approximate layer left", flagged, partial, nil, true, false},
		{"recovery failed", flagged, nil, boom, true, false},
	}
	for _, c := range cases {
		detected, recovered := HealOutcome(c.det, c.rec, c.err)
		if detected != c.detected || recovered != c.recovered {
			t.Errorf("%s: HealOutcome = (%v, %v), want (%v, %v)", c.name, detected, recovered, c.detected, c.recovered)
		}
	}
}

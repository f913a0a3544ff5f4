package audit

import (
	"testing"

	"repro/internal/trace"
)

// TestUnknownKindFlagged pins the replayer's default arm: an event
// whose kind is neither replayed by the switch nor declared out of
// audit scope in the trace schema must surface as an unhandled-kind
// violation instead of sliding through silently.
func TestUnknownKindFlagged(t *testing.T) {
	rep := Run([]trace.Event{ev(10, trace.Kind(250), 0, 0, "")}, Options{})
	found := false
	for _, v := range rep.Violations {
		if v.Code == "unhandled-kind" {
			found = true
		}
	}
	if !found {
		t.Fatalf("unknown kind produced no unhandled-kind violation: %s", rep)
	}
}

// TestReplayCoversSchema replays one event of every declared trace
// kind: each must be either handled or declared out of scope by its
// schema row, so a kind added to the schema without an audit decision
// fails here.
func TestReplayCoversSchema(t *testing.T) {
	for _, k := range trace.Kinds() {
		rep := Run([]trace.Event{ev(10, k, 0, 0, "")}, Options{})
		for _, v := range rep.Violations {
			if v.Code == "unhandled-kind" {
				t.Errorf("kind %s is neither replayed nor declared out of scope", k)
			}
		}
	}
}

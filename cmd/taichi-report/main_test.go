package main

import (
	"strings"
	"testing"
)

// TestUnknownJSONRejected: a .json file that is neither a metrics
// snapshot nor an experiment result must be an error, not an empty
// "## " section.
func TestUnknownJSONRejected(t *testing.T) {
	for name, doc := range map[string]string{
		"bench suite": `{"schema": "taichi-benchsuite/v1", "seed": 1, "workloads": []}`,
		"empty":       `{}`,
		"empty id":    `{"id": "", "values": {"x": 1}}`,
	} {
		if _, ok := parseSnapshot([]byte(doc)); ok {
			t.Errorf("%s: parsed as a metrics snapshot", name)
		}
		if r, err := parseResult([]byte(doc)); err == nil {
			t.Errorf("%s: parsed as result %+v", name, r)
		} else if !strings.Contains(err.Error(), `"id"`) {
			t.Errorf("%s: error %q does not say what is missing", name, err)
		}
	}
	if _, err := parseResult([]byte(`[1, 2]`)); err == nil {
		t.Error("a JSON array parsed as a result")
	}
}

func TestResultParsed(t *testing.T) {
	r, err := parseResult([]byte(`{"id": "fig3", "values": {"cps": 2.5}, "notes": ["n"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "fig3" || r.Values["cps"] != 2.5 || len(r.Notes) != 1 {
		t.Errorf("parsed %+v", r)
	}
}

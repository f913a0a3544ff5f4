package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// placedFlagSet parses args over a flag set holding every placed-mode
// flag plus two that only the per-node scenario reads.
func placedFlagSet(t *testing.T, args ...string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("taichi-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	for name := range placedFlags { //taichi:allow maporder — flag definition order is irrelevant
		fs.String(name, "", "")
	}
	fs.String("mode", "taichi", "")
	fs.Duration("dur", 0, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestCheckPlacedFlags(t *testing.T) {
	ok := []string{"-nodes", "8", "-place", "rr", "-rebalance", "false", "-faults", "default",
		"-recover", "1", "-audit", "1", "-overload", "1", "-util", "0.3", "-seed", "2", "-parallel", "4"}
	if err := checkPlacedFlags(placedFlagSet(t, ok...)); err != nil {
		t.Fatalf("allowlisted flags rejected: %v", err)
	}
	// A flag left at its default is not "set", even if placed mode
	// ignores it.
	if err := checkPlacedFlags(placedFlagSet(t, "-place", "rr")); err != nil {
		t.Fatalf("unset -mode/-dur rejected: %v", err)
	}
	err := checkPlacedFlags(placedFlagSet(t, "-place", "rr", "-mode", "taichi", "-dur", "1s"))
	if err == nil {
		t.Fatal("-mode and -dur accepted in placed mode")
	}
	if !strings.Contains(err.Error(), "-dur, -mode") {
		t.Fatalf("error %q does not name the ignored flags", err)
	}
}

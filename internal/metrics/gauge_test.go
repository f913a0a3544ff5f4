package metrics

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestCounterRate(t *testing.T) {
	c := NewCounter("pkts")
	c.Add(500)
	c.Inc()
	if c.Value() != 501 {
		t.Fatalf("Value = %d", c.Value())
	}
	if got := c.RatePerSecond(sim.Duration(sim.Second)); got != 501 {
		t.Fatalf("rate = %v, want 501", got)
	}
	if c.RatePerSecond(0) != 0 {
		t.Fatal("zero interval should give zero rate")
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset")
	}
}

func TestBusyGaugeIntegration(t *testing.T) {
	g := NewBusyGauge("cpu0", 0)
	g.SetBusy(0, true)
	g.SetBusy(300, false)
	g.SetBusy(700, true)
	g.SetBusy(1000, false)
	// busy 0-300 and 700-1000 => 600/1000.
	if got := g.Utilization(1000); got != 0.6 {
		t.Fatalf("Utilization = %v, want 0.6", got)
	}
}

func TestBusyGaugeInFlight(t *testing.T) {
	g := NewBusyGauge("cpu0", 0)
	g.SetBusy(500, true)
	if got := g.Utilization(1000); got != 0.5 {
		t.Fatalf("in-flight utilization = %v, want 0.5", got)
	}
	if got := g.BusyTime(1000); got != 500 {
		t.Fatalf("BusyTime = %v, want 500", got)
	}
}

func TestBusyGaugeRedundantTransitions(t *testing.T) {
	g := NewBusyGauge("cpu0", 0)
	g.SetBusy(100, true)
	g.SetBusy(200, true) // redundant; must not reset the edge
	g.SetBusy(300, false)
	if got := g.BusyTime(300); got != 200 {
		t.Fatalf("BusyTime = %v, want 200", got)
	}
}

func TestBusyGaugeResetWindow(t *testing.T) {
	g := NewBusyGauge("cpu0", 0)
	g.SetBusy(0, true)
	g.SetBusy(500, false)
	g.ResetWindow(1000)
	if got := g.Utilization(2000); got != 0 {
		t.Fatalf("post-reset utilization = %v, want 0", got)
	}
	g.SetBusy(1500, true)
	if got := g.Utilization(2000); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
}

func TestBusyGaugeResetWhileBusy(t *testing.T) {
	g := NewBusyGauge("cpu0", 0)
	g.SetBusy(0, true)
	g.ResetWindow(1000)
	if !g.Busy() {
		t.Fatal("reset must preserve busy state")
	}
	if got := g.Utilization(2000); got != 1.0 {
		t.Fatalf("utilization = %v, want 1.0", got)
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "fig17", XLabel: "density", YLabel: "startup"}
	s.Add(1, 0.4)
	s.Add(4, 3.1)
	out := s.String()
	if !strings.Contains(out, "fig17") || !strings.Contains(out, "3.1") {
		t.Fatalf("series render missing data:\n%s", out)
	}
	if len(s.Points) != 2 {
		t.Fatal("points not stored")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table 5: RTT", "Mechanism", "Min", "Avg", "Max", "Mdev")
	tb.AddRow("Baseline", 26, 30, 38, 5)
	tb.AddRow("Tai Chi", 27, 30.0, 38, 5)
	out := tb.String()
	for _, want := range []string{"Table 5", "Mechanism", "Baseline", "Tai Chi", "26"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	if len(tb.Rows()) != 2 {
		t.Fatal("Rows")
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1.5:   "1.5",
		2.0:   "2",
		0.123: "0.123",
		0:     "0",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

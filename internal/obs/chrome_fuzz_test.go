package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// FuzzChrome is a differential test: the append-based WriteChrome, via
// ChromeJSON, must render exactly the bytes the fmt/json.Marshal
// exporter it replaced renders, on arbitrary multi-node traces whose
// labels and notes carry arbitrary bytes. The seed corpus is
// testdata/fuzz/FuzzChrome.
func FuzzChrome(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		nodes := decodeNodes(data)
		got, want := ChromeJSON(nodes), chromeReference(nodes)
		if !bytes.Equal(got, want) {
			t.Fatalf("ChromeJSON diverged from the reference on %d nodes\ngot  %q\nwant %q", len(nodes), got, want)
		}
	})
}

// decodeNodes turns fuzz bytes into a multi-node trace. Each record is
// five bytes — kind, time step, CPU, Arg, string length — followed by
// up to seven raw bytes of string, so labels and notes carry whatever
// bytes the fuzzer finds: quotes, backslashes, control bytes, `<>&`,
// U+2028/U+2029, invalid UTF-8. A record whose kind byte is 0xff starts
// a new node labelled with its string; any other record appends an
// event noted with it. The kind byte otherwise ranges over KindNone,
// every schema kind and one unknown kind; CPU takes -1..3 and Arg
// -4..3, so begins and ends collide often and both Chrome tid mappings
// show; the time step spans several decades, so timestamps exercise
// the microsecond rendering, and At never decreases.
func decodeNodes(data []byte) []NodeTrace {
	kinds := trace.Kinds()
	nodes := []NodeTrace{{Label: "node0"}}
	var at sim.Time
	for len(data) >= 5 {
		op, step, cpu, arg, n := data[0], data[1], data[2], data[3], min(int(data[4]%8), len(data)-5)
		str := string(data[5 : 5+n])
		data = data[5+n:]
		if op == 0xff {
			nodes = append(nodes, NodeTrace{Label: str})
			continue
		}
		at += sim.Time(step) << (step % 16)
		last := &nodes[len(nodes)-1]
		last.Events = append(last.Events, trace.Event{
			At:   at,
			Kind: trace.Kind(int(op) % (len(kinds) + 2)),
			CPU:  int(cpu%5) - 1,
			Arg:  int64(int8(arg) >> 5),
			Note: str,
		})
	}
	return nodes
}

// chromeReference is the fmt/json.Marshal Chrome exporter that
// WriteChrome replaced, kept verbatim. FuzzChrome holds the two equal.
func chromeReference(nodes []NodeTrace) []byte {
	var b bytes.Buffer
	b.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		b.WriteString(line)
	}
	for pid, n := range nodes {
		emit(fmt.Sprintf("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":%s}}",
			pid, quoteJSONReference(n.Label)))
		emit(fmt.Sprintf("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"node\"}}",
			pid, mgrTID))
		d := Derive(n.Events)
		for _, s := range d.Spans {
			line := fmt.Sprintf("{\"name\":%s,\"cat\":\"span\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d,\"args\":{\"id\":%d,\"arg\":%d",
				quoteJSONReference(s.Class.String()), usecReference(int64(s.Start)), usecReference(int64(s.Duration())), pid, tid(int(s.CPU)), s.ID, s.Arg)
			if s.Note != "" {
				line += ",\"note\":" + quoteJSONReference(s.Note)
			}
			if s.Truncated {
				line += ",\"truncated\":true"
			}
			emit(line + "}}")
		}
		for _, in := range d.Instants {
			line := fmt.Sprintf("{\"name\":%s,\"cat\":\"mark\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"args\":{\"arg\":%d",
				quoteJSONReference(in.Name), usecReference(int64(in.At)), pid, tid(in.CPU), in.Arg)
			if in.Note != "" {
				line += ",\"note\":" + quoteJSONReference(in.Note)
			}
			emit(line + "}}")
		}
	}
	b.WriteString("\n]}\n")
	return b.Bytes()
}

// usecReference renders nanoseconds as microseconds with exactly three
// decimal places, using integer math only — no float formatting, no
// locale, no rounding-mode dependence.
func usecReference(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}

// quoteJSONReference renders s as a JSON string. encoding/json's string
// escaping is deterministic, and notes never fail to marshal.
func quoteJSONReference(s string) string {
	out, err := json.Marshal(s)
	if err != nil {
		// Unreachable for strings; keep the exporter total anyway.
		return "\"\""
	}
	return string(out)
}

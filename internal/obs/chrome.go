package obs

import (
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"

	"repro/internal/sim"
	"repro/internal/trace"
)

// NodeTrace is one node's share of an export: a display label and its
// recorded events. Multi-node exports (fleet runs) pass one NodeTrace
// per member in member-index order; the member index becomes the Chrome
// pid, so worker count and completion order cannot influence the bytes.
type NodeTrace struct {
	Label  string
	Events []trace.Event
}

// mgrTID is the Chrome thread id used for events with CPU -1 (the
// VM-request manager and other node-wide actors). Chrome/Perfetto want
// non-negative thread ids.
const mgrTID = 255

// chromeLineBytes sizes ChromeJSON's buffer: an export line averages
// about 126 bytes on a faulted VM-churn trace, so one allocation of this
// much per line almost always holds the whole export.
const chromeLineBytes = 128

// ChromeJSON renders the nodes' traces in the Chrome trace-event JSON
// format; see WriteChrome for the layout. It counts each node's output
// lines from its events first, so it can size the output once.
func ChromeJSON(nodes []NodeTrace) []byte {
	lines := 2 // the wrapper's opening and closing lines
	for _, n := range nodes {
		nOpen, nInstant := outputCounts(n.Events)
		lines += 2 + nOpen + nInstant
	}
	cw := &chromeWriter{buf: make([]byte, 0, lines*chromeLineBytes), first: true}
	cw.export(nodes)
	return cw.buf
}

// ChromeJSONSingle is ChromeJSON for the common one-node case.
func ChromeJSONSingle(label string, events []trace.Event) []byte {
	return ChromeJSON([]NodeTrace{{Label: label, Events: events}})
}

// WriteChrome streams the nodes' traces to w in the Chrome trace-event
// JSON format (the JSON Array Format with a displayTimeUnit wrapper),
// one event per line. Spans become "X" complete events, unpaired
// markers become "i" instants, and each node gets a process_name
// metadata record. The assembly is pure integer math plus fixed field
// order: byte-identical output for identical traces, regardless of
// host, worker count, or repetition. Strings are escaped exactly as
// encoding/json escapes them. It returns the first write error.
func WriteChrome(w io.Writer, nodes []NodeTrace) error {
	return newChromeWriter(w).export(nodes)
}

// chromeWriter formats each Chrome trace-event line into one reused
// buffer and hands it to w whole, so a line costs no allocation. After
// a write error it writes nothing more. With no w, buf accumulates the
// whole export instead.
type chromeWriter struct {
	w     io.Writer
	buf   []byte
	first bool
	err   error
}

func newChromeWriter(w io.Writer) *chromeWriter {
	return &chromeWriter{w: w, buf: make([]byte, 0, 512), first: true}
}

// export writes the whole document. It derives each node only when it
// reaches that node, so it holds one derivation at a time.
func (cw *chromeWriter) export(nodes []NodeTrace) error {
	cw.buf = append(cw.buf, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"...)
	cw.write()
	for pid, n := range nodes {
		if cw.err != nil {
			return cw.err
		}
		cw.process(pid, n.Label)
		d := Derive(n.Events)
		for i := range d.Spans {
			cw.span(pid, &d.Spans[i])
		}
		for i := range d.Instants {
			cw.instant(pid, &d.Instants[i])
		}
	}
	cw.buf = append(cw.buf, "\n]}\n"...)
	cw.write()
	return cw.err
}

// line starts a new event line: the separator from the previous one.
func (cw *chromeWriter) line() {
	if !cw.first {
		cw.buf = append(cw.buf, ",\n"...)
	}
	cw.first = false
}

// end closes the line and writes it.
func (cw *chromeWriter) end() {
	cw.buf = append(cw.buf, "}}"...)
	cw.write()
}

func (cw *chromeWriter) write() {
	if cw.w == nil {
		return
	}
	if cw.err == nil {
		_, cw.err = cw.w.Write(cw.buf)
	}
	cw.buf = cw.buf[:0]
}

// process writes a node's process_name and thread_name metadata records.
func (cw *chromeWriter) process(pid int, label string) {
	cw.line()
	cw.buf = fmt.Appendf(cw.buf, `{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":`, pid)
	cw.buf = appendJSONString(cw.buf, label)
	cw.end()
	cw.line()
	cw.buf = fmt.Appendf(cw.buf, `{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"node"`, pid, mgrTID)
	cw.end()
}

// spanPrefixes holds, per class, the start of a span's "X" event up to
// its timestamp, the class name escaped once here rather than per span.
var spanPrefixes = func() (p [trace.NumClasses]string) {
	for c := range p {
		b := appendJSONString([]byte(`{"name":`), trace.Class(c).String())
		p[c] = string(append(b, `,"cat":"span","ph":"X","ts":`...))
	}
	return p
}()

// span writes one span as an "X" complete event.
func (cw *chromeWriter) span(pid int, s *Span) {
	cw.line()
	b := append(cw.buf, spanPrefixes[s.Class]...)
	b = appendUsec(b, int64(s.Start))
	b = append(b, `,"dur":`...)
	b = appendUsec(b, int64(s.Duration()))
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid(int(s.CPU))), 10)
	b = append(b, `,"args":{"id":`...)
	b = strconv.AppendInt(b, int64(s.ID), 10)
	b = append(b, `,"arg":`...)
	b = strconv.AppendInt(b, s.Arg, 10)
	if s.Note != "" {
		b = append(b, `,"note":`...)
		b = appendJSONString(b, s.Note)
	}
	if s.Truncated {
		b = append(b, `,"truncated":true`...)
	}
	cw.buf = b
	cw.end()
}

// instant writes one instant as an "i" event on its thread.
func (cw *chromeWriter) instant(pid int, in *Instant) {
	cw.line()
	b := append(cw.buf, `{"name":`...)
	b = appendJSONString(b, in.Name)
	b = append(b, `,"cat":"mark","ph":"i","s":"t","ts":`...)
	b = appendUsec(b, int64(in.At))
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid(in.CPU)), 10)
	b = append(b, `,"args":{"arg":`...)
	b = strconv.AppendInt(b, in.Arg, 10)
	if in.Note != "" {
		b = append(b, `,"note":`...)
		b = appendJSONString(b, in.Note)
	}
	cw.buf = b
	cw.end()
}

// tid maps a trace CPU id to a Chrome thread id.
func tid(cpu int) int {
	if cpu < 0 {
		return mgrTID
	}
	return cpu
}

// appendUsec appends nanoseconds as microseconds with exactly three
// decimal places, using integer math only — no float formatting, no
// locale, no rounding-mode dependence.
func appendUsec(b []byte, ns int64) []byte {
	u := uint64(ns)
	if ns < 0 {
		b = append(b, '-')
		u = -u
	}
	b = strconv.AppendUint(b, u/1000, 10)
	frac := u % 1000
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

// appendJSONString appends s as a JSON string, escaped byte for byte as
// encoding/json.Marshal escapes it: `"` and `\` backslashed; \b \f \n
// \r \t short-escaped; other control bytes and the HTML-significant
// `<`, `>` and `&` as \u00XX; U+2028 and U+2029 as \u2028 and \u2029;
// and each byte of invalid UTF-8 as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// SpanSummary aggregates derived spans per class: count, truncation
// count, and total duration. Handy for quick textual reports and for
// asserting derivation behaviour in tests without string-diffing JSON.
type SpanSummary struct {
	Class     trace.Class
	Count     int
	Truncated int
	Total     sim.Duration
}

// Summarize folds a derivation's spans into per-class summaries, sorted
// by class name.
func Summarize(d Derivation) []SpanSummary {
	var by [trace.NumClasses]SpanSummary
	for i := range d.Spans {
		s := &d.Spans[i]
		sum := &by[s.Class]
		sum.Count++
		if s.Truncated {
			sum.Truncated++
		}
		sum.Total += s.Duration()
	}
	var out []SpanSummary
	for _, c := range classesByName {
		if by[c].Count > 0 {
			by[c].Class = c
			out = append(out, by[c])
		}
	}
	return out
}

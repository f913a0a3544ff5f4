// Command bench is the repository benchmark: four simulator workloads, run
// one at a time. A workload runs its seed set in reps, each rep in its
// own child process: untraced reps for the end-to-end metrics, as many as
// fit in -seconds (at least minReps), then with -trace 1 one traced rep
// with per-class wall attribution for the per-layer metrics.
// Every seed run's results are hashed and checked against
// testdata/pins.json.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash bench/run.sh -seed 1 -out run.json
//	bash bench/run.sh -workload fleet-place -seed 3 -trace 1
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh -seed 1 -repin
//
// The last line of standard output is the last workload's result as one
// JSON object: correct, attempted, failed, and the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1), each with its unit.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"

	"repro/internal/metrics"
)

//go:embed testdata/pins.json
var pinsJSON []byte

// pinsPath is where -repin writes, relative to the repository root.
const pinsPath = "bench/testdata/pins.json"

// schema names the -out file format.
const schema = "taichi-benchsuite/v1"

// minReps is the fewest untraced reps a workload runs, however short
// -seconds is.
const minReps = 3

// runSeconds is the default of -seconds: BENCHMARK.json's run_seconds, the
// length every run of the benchmark has (a test keeps the two equal). It
// gives a workload 3 to 12 untraced reps on the reference host, depending
// on the workload and on the host's speed at the time.
const runSeconds = 28

// runFile is what -out writes and -compare reads.
type runFile struct {
	Schema    string    `json:"schema"`
	Seed      int64     `json:"seed"`
	GoVersion string    `json:"go_version"`
	NumCPU    int       `json:"num_cpu"`
	Workloads []*record `json:"workloads"`
}

func main() {
	name := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 1, "seed set; a workload with k seeds runs simulator seeds (seed-1)*k+1 … seed*k")
	seconds := flag.Float64("seconds", runSeconds, "run as many untraced reps as fit in this many seconds, the traced rep included (at least 3 reps always run)")
	traced := flag.Int("trace", 0, "1 runs the traced rep and puts the per-layer metrics on the result line; 0 the end-to-end metrics")
	out := flag.String("out", "", "write every workload's record to this JSON file")
	cmp := flag.Bool("compare", false, "compare two -out files given as arguments")
	repin := flag.Bool("repin", false, "rewrite "+pinsPath+" with this run's digests")
	child := flag.Bool("child", false, "run one rep of -workload in this process and print it (the parent's protocol)")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fatalf(2, "-compare takes two files")
		}
		ok, err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatalf(2, "%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *traced < 0 || *traced > 1 || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fatalf(2, "%v", err)
		}
		selected = []workloadSpec{w}
	}

	if *child {
		if *name == "" {
			fatalf(2, "-child needs -workload")
		}
		w := selected[0]
		rr, err := runRep(w, w.simSeeds(*seed), *traced == 1)
		if err != nil {
			fatalf(1, "%v", err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rr); err != nil {
			fatalf(1, "writing rep: %v", err)
		}
		return
	}

	pins := map[string]string{}
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		fatalf(1, "pins: %v", err)
	}
	check := pins
	if *repin {
		check = nil
	}
	file := runFile{Schema: schema, Seed: *seed, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()}
	failed := false
	for _, w := range selected {
		rec, err := measure(w, *seed, *seconds, *traced == 1, check)
		if err != nil {
			fatalf(1, "%v", err)
		}
		file.Workloads = append(file.Workloads, rec)
		failed = failed || rec.Failed > 0
		report(os.Stdout, rec)
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			fatalf(1, "encoding %s: %v", *out, err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatalf(1, "%v", err)
		}
	}
	if *repin {
		if failed {
			fatalf(1, "refusing to re-pin a run with failures")
		}
		if err := writePins(pins, file.Workloads); err != nil {
			fatalf(1, "%v", err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// measure runs untraced reps of the workload, each in a child process,
// then with traced one traced rep. After minReps it starts another
// untraced rep only if that rep, and the traced rep after it, would still
// end within the given seconds, judging by the reps' mean length so far
// and a traced rep half as long again; so a run lasts about the given
// seconds however fast the host is.
func measure(w workloadSpec, seed int64, seconds float64, traced bool, pins map[string]string) (*record, error) {
	rec := newRecord(w, seed)
	start := clock()
	deadline := start + int64(seconds*1e9)
	for {
		if n := int64(len(rec.Reps)); n >= minReps {
			need := (clock() - start) / n
			if traced {
				need += need * 3 / 2
			}
			if clock()+need > deadline {
				break
			}
		}
		rr, err := spawnRep(w.name, seed, false)
		if err != nil {
			return nil, err
		}
		rec.add(rr, false, pins)
	}
	if traced {
		rr, err := spawnRep(w.name, seed, true)
		if err != nil {
			return nil, err
		}
		rec.add(rr, true, pins)
	}
	return rec, nil
}

// spawnRep runs one rep in a child process of this binary.
func spawnRep(name string, seed int64, traced bool) (repResult, error) {
	var rr repResult
	exe, err := os.Executable()
	if err != nil {
		return rr, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return rr, fmt.Errorf("workload %s: %w", name, err)
	}
	if err := json.Unmarshal(stdout, &rr); err != nil {
		return rr, fmt.Errorf("workload %s: reading its rep: %w", name, err)
	}
	return rr, nil
}

// metricValue is one metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line JSON result of a workload.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the workload's metrics for a reader, then its result
// line: the per-layer metrics when the record has a traced rep, the
// end-to-end metrics otherwise.
func report(w io.Writer, rec *record) {
	traced := rec.Traced != nil
	fmt.Fprintf(w, "== %s seed %d (simulator seeds %d-%d): %d untraced reps, traced rep %t, %d seed runs, %d failed\n",
		rec.Workload, rec.Seed, rec.SimSeeds[0], rec.SimSeeds[len(rec.SimSeeds)-1],
		len(rec.Reps), traced, rec.Attempted, rec.Failed)
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	vals := rec.metrics()
	samples := rec.endToEndSamples()
	for _, d := range endToEnd {
		q1, med, q3 := quartiles(samples[d.name])
		fmt.Fprintf(w, "   %-28s %14.6g %-5s q1 %.6g  q3 %.6g\n", d.name, med, d.unit, q1, q3)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		for _, d := range perLayer {
			fmt.Fprintf(w, "   %-28s %14.6g %s\n", d.name, vals[d.name], d.unit)
		}
	}
	line := resultLine{
		Correct:   rec.Failed == 0,
		Attempted: rec.Attempted,
		Failed:    rec.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatalf(1, "encoding result: %v", err)
	}
	fmt.Fprintf(w, "%s\n", data)
}

// writePins merges the records' digests into the pin file.
func writePins(pins map[string]string, recs []*record) error {
	for _, rec := range recs {
		for _, k := range metrics.SortedKeys(rec.Digests) {
			pins[k] = rec.Digests[k]
		}
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(pinsPath, append(data, '\n'), 0o644)
}

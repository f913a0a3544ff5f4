// Command taichi-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	taichi-bench                 # run every experiment at full scale
//	taichi-bench -quick          # quarter-scale smoke run
//	taichi-bench -exp fig11,table5
//	taichi-bench -parallel 8     # worker-pool size (default GOMAXPROCS)
//	taichi-bench -list
//
// Output is plain text: one section per experiment with the same rows
// and series the paper reports, printed in registry order regardless of
// the pool size. Experiments are independent deterministic simulations,
// so -parallel changes wall-clock time only, never a single output byte
// (see ARCHITECTURE.md §5). EXPERIMENTS.md records a reference run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	taichi "repro"
)

// outcome is one experiment's buffered output, handed from the worker
// pool to the in-order printer.
type outcome struct {
	text string
	wall time.Duration
	errs []string
}

func main() {
	quick := flag.Bool("quick", false, "run at quarter scale (fast smoke run)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	exps := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	jsonDir := flag.String("json", "", "also write per-experiment JSON results into this directory")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker-pool size for experiments and fleet members (1 = sequential; output is identical either way)")
	flag.Parse()

	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *list {
		for _, e := range taichi.Experiments() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	scale := taichi.Full
	if *quick {
		scale = taichi.Quick
	}
	// Thread the pool size into the harnesses too, so fleet members and
	// density sweeps inside one experiment fan out as well.
	scale.Workers = *parallel

	var selected []taichi.Experiment
	if *exps == "" {
		selected = taichi.Experiments()
	} else {
		for _, id := range strings.Split(*exps, ",") {
			id = strings.TrimSpace(id)
			e := taichi.ExperimentByID(id)
			if e == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, *e)
		}
	}

	workers := *parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(selected) {
		workers = len(selected)
	}

	fmt.Printf("Tai Chi reproduction bench — %d experiment(s), scale=%s, workers=%d\n\n",
		len(selected), scale.Label, workers)
	start := time.Now() //taichi:allow walltime — total bench wall time for the EXPERIMENTS.md table

	// Run the selected experiments on a bounded pool; each worker buffers
	// its experiment's rendered output so the printer below can emit
	// sections in registry order as they complete.
	outs := make([]chan outcome, len(selected))
	for i := range outs {
		outs[i] = make(chan outcome, 1)
	}
	sem := make(chan struct{}, workers)
	for i, e := range selected {
		i, e := i, e
		go func() {
			sem <- struct{}{}
			defer func() { <-sem }()
			begin := time.Now() //taichi:allow walltime — per-experiment wall time; experiment output depends only on the seed
			res := e.Run(scale)
			o := outcome{wall: time.Since(begin)} //taichi:allow walltime — paired with the begin stamp above
			o.text = res.Render()
			if *jsonDir != "" {
				data, err := res.JSON()
				if err == nil {
					err = os.WriteFile(filepath.Join(*jsonDir, e.ID+".json"), data, 0o644)
				}
				if err != nil {
					o.errs = append(o.errs, fmt.Sprintf("json export %s: %v", e.ID, err))
				}
			}
			outs[i] <- o
		}()
	}
	for i, e := range selected {
		o := <-outs[i]
		fmt.Print(o.text)
		fmt.Printf("(%s in %.1fs wall)\n\n", e.ID, o.wall.Seconds())
		for _, msg := range o.errs {
			fmt.Fprintln(os.Stderr, msg)
		}
	}
	//taichi:allow walltime — operator-facing total; printed after all deterministic output
	fmt.Printf("total: %.1fs wall\n", time.Since(start).Seconds())
}

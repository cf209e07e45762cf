// Command qossweep regenerates the paper's tables and figures: parameter
// sweeps over prediction accuracy a and user strategy U, printed as the
// same rows/series the paper reports.
//
// Usage:
//
//	qossweep [-exp all|list|table1|table2|fig1..fig12|headline|ablation-*]
//	         [-jobs N] [-seed S] [-workers W] [-csv] [-serve addr]
//
// "-exp list" prints the available experiments. Full scale (10,000 jobs)
// regenerates everything in a few minutes; -jobs 2000 gives a fast preview
// with the same shapes.
//
// -serve exposes the sweep live over HTTP while it runs: /metrics carries
// Prometheus gauges for points done/total, elapsed seconds, and an ETA, so
// multi-hour sweeps can be watched from a browser or scraped.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"probqos/internal/experiment"
	"probqos/internal/obs"
	"probqos/internal/table"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "qossweep:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("qossweep", flag.ContinueOnError)
	var (
		expFlag = fs.String("exp", "all", "experiment ID, comma-separated IDs, 'all', or 'list'")
		jobs    = fs.Int("jobs", 10000, "workload size (the paper uses 10000)")
		seed    = fs.Int64("seed", 0, "synthetic trace seed")
		workers = fs.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
		asCSV   = fs.Bool("csv", false, "emit CSV instead of aligned text")
		outDir  = fs.String("outdir", "", "also write each experiment's tables as CSV files into this directory")
		serve   = fs.String("serve", "", "serve sweep progress on this address (/metrics, /healthz, /snapshot)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *expFlag == "list" {
		for _, exp := range experiment.All() {
			fmt.Fprintf(out, "%-22s %s\n", exp.ID, exp.Title)
		}
		return nil
	}

	var selected []experiment.Experiment
	if *expFlag == "all" {
		selected = experiment.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			exp, ok := experiment.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -exp list)", id)
			}
			selected = append(selected, exp)
		}
	}

	env := experiment.NewEnv()
	env.JobCount = *jobs
	env.Seed = *seed
	env.Workers = *workers

	if *serve != "" {
		reg := obs.NewRegistry()
		srv := obs.NewServer(reg, nil)
		addr, err := srv.Start(*serve)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "serving sweep metrics on http://%s/metrics\n", addr)
		var (
			gTotal   = reg.Gauge("probqos_sweep_points_total", "Distinct simulation points the selected experiments declare.", nil)
			gDone    = reg.Gauge("probqos_sweep_points_done", "Simulation points computed so far.", nil)
			gElapsed = reg.Gauge("probqos_sweep_elapsed_seconds", "Wall-clock seconds since the sweep started.", nil)
			gETA     = reg.Gauge("probqos_sweep_eta_seconds", "Estimated seconds to finish the remaining points.", nil)
			start    = time.Now()
		)
		env.Progress = func(done, total int) {
			elapsed := time.Since(start).Seconds()
			gDone.Set(float64(done))
			gTotal.Set(float64(total))
			gElapsed.Set(elapsed)
			if done > 0 {
				gETA.Set(elapsed / float64(done) * float64(total-done))
			}
		}
	}

	// RunAll computes every declared point on one pool, then runs the
	// experiments in input order; rendering stops at the first failed
	// experiment, as a serial loop would.
	results := experiment.RunAll(env, selected)
	for i, res := range results {
		exp := res.Exp
		if i > 0 {
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "== %s: %s\n", exp.ID, exp.Title)
		fmt.Fprintf(out, "   paper: %s\n", exp.Paper)
		if res.Err != nil {
			return fmt.Errorf("%s: %w", exp.ID, res.Err)
		}
		for k, t := range res.Tables {
			fmt.Fprintln(out)
			if *asCSV {
				if err := t.WriteCSV(out); err != nil {
					return err
				}
			} else if err := t.WriteText(out); err != nil {
				return err
			}
			if *outDir != "" {
				if err := writeCSVFile(*outDir, exp.ID, k, t); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func writeCSVFile(dir, id string, index int, t *table.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := id + ".csv"
	if index > 0 {
		name = fmt.Sprintf("%s_%d.csv", id, index)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

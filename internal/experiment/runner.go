package experiment

import (
	"probqos/internal/table"
)

// RunResult is one experiment's outcome from RunAll, in input order.
type RunResult struct {
	Exp    Experiment
	Tables []*table.Table
	Err    error
}

// RunAll computes the distinct points the experiments declare, once each,
// on one pool of env.Workers goroutines, then runs every experiment in
// input order over the warm cache and returns their results indexed like
// the input.
//
// Determinism: every table is a pure function of memoized point results,
// which are themselves deterministic per point, so the returned tables are
// identical whatever the worker count or completion order.
//
// An experiment's error does not stop the others (their points are often
// shared, and results report per-experiment); callers that want serial
// error semantics stop at the first Err in input order.
func RunAll(env *Env, exps []Experiment) []RunResult {
	seen := make(map[PointSpec]bool)
	var specs []PointSpec
	for _, exp := range exps {
		for _, p := range exp.Points {
			if !seen[p] {
				seen[p] = true
				specs = append(specs, p)
			}
		}
	}
	env.computeAll(specs)
	results := make([]RunResult, len(exps))
	for i, exp := range exps {
		tables, err := exp.Run(env)
		results[i] = RunResult{Exp: exp, Tables: tables, Err: err}
	}
	return results
}

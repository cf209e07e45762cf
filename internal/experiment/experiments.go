package experiment

import (
	"fmt"

	"probqos/internal/checkpoint"
	"probqos/internal/metrics"
	"probqos/internal/table"
	"probqos/internal/units"
)

// Experiment regenerates one table or figure of the paper (or one ablation
// from DESIGN.md §6).
type Experiment struct {
	// ID is the short name used by cmd/qossweep -exp and the bench names
	// (e.g. "fig1", "table2", "ablation-checkpoint").
	ID string
	// Title describes what is produced.
	Title string
	// Paper states what the paper reports for this artifact, for
	// side-by-side comparison in EXPERIMENTS.md.
	Paper string
	// Points are the simulation points Run reads. RunAll computes the
	// points of all its experiments in parallel before calling any Run, so
	// a point Run reads without declaring it here runs serially.
	Points []PointSpec
	// Run produces the output tables.
	Run func(e *Env) ([]*table.Table, error)
}

// sweep values 0.0 .. 1.0 in steps of 0.1, as in §4.4.
var sweep = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// figureUs are the three user strategies highlighted in Figures 1-6.
var figureUs = []float64{0.1, 0.5, 0.9}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		table1Exp(),
		table2Exp(),
		accuracyFigure("fig1", "QoS vs. prediction accuracy, SDSC log", "SDSC",
			"QoS rises from ~0.90 toward ~0.99; benefits visible even at a=0.1",
			func(r metrics.Report) string { return table.Float(r.QoS, 4) }),
		accuracyFigure("fig2", "QoS vs. prediction accuracy, NASA log", "NASA",
			"QoS in 0.93-0.99; little benefit until a >= U; nondecreasing at U=0.9",
			func(r metrics.Report) string { return table.Float(r.QoS, 4) }),
		accuracyFigure("fig3", "Average utilization vs. prediction accuracy, SDSC log", "SDSC",
			"utilization ~0.64-0.71, increasing with a",
			func(r metrics.Report) string { return table.Float(r.Utilization, 4) }),
		accuracyFigure("fig4", "Average utilization vs. prediction accuracy, NASA log", "NASA",
			"utilization ~0.55-0.59, increasing with a",
			func(r metrics.Report) string { return table.Float(r.Utilization, 4) }),
		accuracyFigure("fig5", "Total work lost vs. prediction accuracy, SDSC log", "SDSC",
			"lost work falls from ~4.5e7 toward ~0.5e7 node-s as a rises",
			func(r metrics.Report) string { return table.Sci(r.LostWork.NodeSeconds()) }),
		accuracyFigure("fig6", "Total work lost vs. prediction accuracy, NASA log", "NASA",
			"lost work falls from ~4.5e6 toward ~0.5e6 node-s; ~10x below SDSC",
			func(r metrics.Report) string { return table.Sci(r.LostWork.NodeSeconds()) }),
		fig7Exp(),
		fig8Exp(),
		userFigure("fig9", "Average utilization vs. user behavior, SDSC log, a=1", "SDSC",
			"utilization ~0.685-0.72, increasing with U",
			func(r metrics.Report) string { return table.Float(r.Utilization, 4) }),
		userFigure("fig10", "Average utilization vs. user behavior, NASA log, a=1", "NASA",
			"utilization ~0.555-0.595, increasing with U",
			func(r metrics.Report) string { return table.Float(r.Utilization, 4) }),
		userFigure("fig11", "Total work lost vs. user behavior, SDSC log, a=1", "SDSC",
			"lost work decreasing with U, ~2.5e7 -> ~0",
			func(r metrics.Report) string { return table.Sci(r.LostWork.NodeSeconds()) }),
		userFigure("fig12", "Total work lost vs. user behavior, NASA log, a=1", "NASA",
			"lost work decreasing with U, ~4.5e6 -> ~0",
			func(r metrics.Report) string { return table.Sci(r.LostWork.NodeSeconds()) }),
		headlineExp(),
		ablationNodeSelection(),
		ablationCheckpointPolicy(),
		ablationDeadlineSkip(),
		ablationNegotiation(),
		ablationBaseRate(),
		ablationFailureModel(),
		ablationHorizon(),
		ablationEstimates(),
		ablationMonitor(),
		sweepCheckpointParams(),
		sweepClusterSize(),
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, exp := range All() {
		if exp.ID == id {
			return exp, true
		}
	}
	return Experiment{}, false
}

func table1Exp() Experiment {
	return Experiment{
		ID:    "table1",
		Title: "Table 1: job log characteristics",
		Paper: "NASA: avg 6.3 nodes, avg 381 s, max 12 h; SDSC: avg 9.7 nodes, avg 7722 s, max 132 h",
		Run: func(e *Env) ([]*table.Table, error) {
			t := table.New("Table 1: Job log characteristics",
				"Job Log", "Avg nj (nodes)", "Avg ej (s)", "Max ej (hr)",
				"Paper Avg nj", "Paper Avg ej", "Paper Max ej")
			paper := map[string][3]string{
				"NASA": {"6.3", "381", "12"},
				"SDSC": {"9.7", "7722", "132"},
			}
			for _, name := range []string{"NASA", "SDSC"} {
				log, err := e.Log(name)
				if err != nil {
					return nil, err
				}
				c := log.Characteristics()
				p := paper[name]
				t.Add(name,
					table.Float(c.AvgNodes, 1),
					table.Float(c.AvgExec, 0),
					table.Float(c.MaxExec.Hours(), 0),
					p[0], p[1], p[2])
			}
			return []*table.Table{t}, nil
		},
	}
}

func table2Exp() Experiment {
	return Experiment{
		ID:    "table2",
		Title: "Table 2: simulation parameters",
		Paper: "N=128, C=720 s, I=3600 s, a,U in [0,1], downtime 120 s",
		Run: func(e *Env) ([]*table.Table, error) {
			p := checkpoint.DefaultParams()
			t := table.New("Table 2: Simulation parameters",
				"N (nodes)", "C (s)", "I (s)", "a", "U", "downtime (s)")
			t.Add("128",
				fmt.Sprintf("%d", int64(p.Overhead)),
				fmt.Sprintf("%d", int64(p.Interval)),
				"[0,1]", "[0,1]",
				fmt.Sprintf("%d", int64(2*units.Minute)))
			return []*table.Table{t}, nil
		},
	}
}

// accuracyFigure builds a "metric vs a" figure with curves for U = 0.1,
// 0.5, 0.9 (Figures 1-6).
func accuracyFigure(id, title, log, paper string, cell func(metrics.Report) string) Experiment {
	var points []PointSpec
	for _, a := range sweep {
		for _, u := range figureUs {
			points = append(points, PointSpec{Log: log, A: a, U: u})
		}
	}
	return Experiment{
		ID:     id,
		Title:  title + ", U=0.1/0.5/0.9",
		Paper:  paper,
		Points: points,
		Run: func(e *Env) ([]*table.Table, error) {
			rs, err := e.reports(points)
			if err != nil {
				return nil, err
			}
			t := table.New(title, "Accuracy (a)", "U=0.1", "U=0.5", "U=0.9")
			for i, a := range sweep {
				row := []string{table.Float(a, 1)}
				for _, r := range rs[i*len(figureUs) : (i+1)*len(figureUs)] {
					row = append(row, cell(r))
				}
				t.Add(row...)
			}
			return []*table.Table{t}, nil
		},
	}
}

// userFigure builds a "metric vs U" figure at a = 1 (Figures 9-12).
func userFigure(id, title, log, paper string, cell func(metrics.Report) string) Experiment {
	points := userSweep(log, 1)
	return Experiment{
		ID:     id,
		Title:  title,
		Paper:  paper,
		Points: points,
		Run: func(e *Env) ([]*table.Table, error) {
			rs, err := e.reports(points)
			if err != nil {
				return nil, err
			}
			t := table.New(title, "User Parameter (U)", "value")
			for i, u := range sweep {
				t.Add(table.Float(u, 1), cell(rs[i]))
			}
			return []*table.Table{t}, nil
		},
	}
}

// userSweep is the full-system points of one log at accuracy a, one per U
// in sweep.
func userSweep(log string, a float64) []PointSpec {
	points := make([]PointSpec, len(sweep))
	for i, u := range sweep {
		points[i] = PointSpec{Log: log, A: a, U: u}
	}
	return points
}

func fig7Exp() Experiment {
	points := userSweep("SDSC", 0.5)
	return Experiment{
		ID:     "fig7",
		Title:  "Figure 7: QoS vs. user behavior, SDSC log, a=0.5",
		Paper:  "QoS varies with U only below the point where the accuracy cap binds, then is flat",
		Points: points,
		Run: func(e *Env) ([]*table.Table, error) {
			rs, err := e.reports(points)
			if err != nil {
				return nil, err
			}
			t := table.New("Figure 7: QoS vs. user behavior, SDSC log, a=0.5",
				"User Parameter (U)", "QoS")
			for i, u := range sweep {
				t.Add(table.Float(u, 1), table.Float(rs[i].QoS, 4))
			}
			return []*table.Table{t}, nil
		},
	}
}

func fig8Exp() Experiment {
	var points []PointSpec
	for _, u := range sweep {
		points = append(points, PointSpec{Log: "SDSC", A: 1, U: u}, PointSpec{Log: "NASA", A: 1, U: u})
	}
	return Experiment{
		ID:     "fig8",
		Title:  "Figure 8: QoS vs. user behavior, both logs, a=1",
		Paper:  "QoS increases with U for both logs, reaching ~0.99-1.0 at U=1",
		Points: points,
		Run: func(e *Env) ([]*table.Table, error) {
			rs, err := e.reports(points)
			if err != nil {
				return nil, err
			}
			t := table.New("Figure 8: QoS vs. user behavior, flat cluster, a=1",
				"User Parameter (U)", "SDSC", "NASA")
			for i, u := range sweep {
				t.Add(table.Float(u, 1), table.Float(rs[2*i].QoS, 4), table.Float(rs[2*i+1].QoS, 4))
			}
			return []*table.Table{t}, nil
		},
	}
}

func headlineExp() Experiment {
	return Experiment{
		ID:     "headline",
		Title:  "Headline improvements vs. the no-forecasting baseline",
		Paper:  "QoS/utilization up by as much as 6% (accuracy sweep) and 4%/3% (user sweep); lost work reduced ~9x (89%)",
		Points: append(headlinePoints("NASA"), headlinePoints("SDSC")...),
		Run: func(e *Env) ([]*table.Table, error) {
			t := table.New("Headline: a=0 (no forecasting) vs a=1 (perfect prediction), and U=0 vs U=1 at a=1",
				"Log", "Comparison", "QoS delta", "Util delta", "Lost work ratio", "Paper")
			for _, log := range []string{"NASA", "SDSC"} {
				rs, err := e.reports(headlinePoints(log))
				if err != nil {
					return nil, err
				}
				base, best, loose, strict := rs[0], rs[1], rs[2], rs[3]
				t.Add(log, "a: 0 -> 1 (U=0.9)",
					"+"+table.Float(100*(best.QoS-base.QoS), 1)+"%",
					"+"+table.Float(100*(best.Utilization-base.Utilization), 1)+"%",
					lostRatio(base.LostWork, best.LostWork),
					"+6% QoS/util, /9 lost work")
				t.Add(log, "U: 0 -> 1 (a=1)",
					"+"+table.Float(100*(strict.QoS-loose.QoS), 1)+"%",
					"+"+table.Float(100*(strict.Utilization-loose.Utilization), 1)+"%",
					lostRatio(loose.LostWork, strict.LostWork),
					"+4% QoS, +3% util, /9 lost work")
			}
			return []*table.Table{t}, nil
		},
	}
}

// headlinePoints are one log's points the headline compares, at a=0 and
// a=1 with U=0.9, and at U=0 and U=1 with a=1.
func headlinePoints(log string) []PointSpec {
	return []PointSpec{
		{Log: log, A: 0, U: 0.9},
		{Log: log, A: 1, U: 0.9},
		{Log: log, A: 1, U: 0},
		{Log: log, A: 1, U: 1},
	}
}

func lostRatio(base, best units.Work) string {
	if best == 0 {
		if base == 0 {
			return "1.0x"
		}
		return "inf (to zero)"
	}
	return table.Float(base.NodeSeconds()/best.NodeSeconds(), 1) + "x"
}

// ablation builds a full-system vs variant comparison at representative
// operating points.
func ablation(id, title, paper, variant string) Experiment {
	// Each operating point, under the full system and then the variant.
	var points []PointSpec
	for _, p := range []PointSpec{
		{Log: "SDSC", A: 0.5, U: 0.5},
		{Log: "SDSC", A: 1, U: 0.9},
		{Log: "NASA", A: 0.5, U: 0.5},
	} {
		alt := p
		alt.Variant = variant
		points = append(points, p, alt)
	}
	return Experiment{
		ID:     id,
		Title:  title,
		Paper:  paper,
		Points: points,
		Run: func(e *Env) ([]*table.Table, error) {
			rs, err := e.reports(points)
			if err != nil {
				return nil, err
			}
			t := table.New(title,
				"Log", "a", "U", "System", "QoS", "Utilization", "Lost work")
			for i, p := range points {
				system := "full"
				if p.Variant != "" {
					system = p.Variant
				}
				t.Add(p.Log, table.Float(p.A, 1), table.Float(p.U, 1), system,
					table.Float(rs[i].QoS, 4), table.Float(rs[i].Utilization, 4),
					table.Sci(rs[i].LostWork.NodeSeconds()))
			}
			return []*table.Table{t}, nil
		},
	}
}

func ablationNodeSelection() Experiment {
	return ablation("ablation-nodesel",
		"Ablation: fault-aware node selection vs first fit",
		"fault-aware tie-breaking is the scheduler half of the paper's mechanism",
		"first-fit")
}

func ablationCheckpointPolicy() Experiment {
	var points []PointSpec
	for _, v := range []string{"", "periodic", "no-checkpoint"} {
		points = append(points, PointSpec{Log: "SDSC", A: 0.5, U: 0.5, Variant: v})
	}
	return Experiment{
		ID:     "ablation-checkpoint",
		Title:  "Ablation: risk-based vs periodic vs no checkpointing",
		Paper:  "risk-based cooperative checkpointing performs only the checkpoints that matter",
		Points: points,
		Run: func(e *Env) ([]*table.Table, error) {
			rs, err := e.reports(points)
			if err != nil {
				return nil, err
			}
			t := table.New("Ablation: checkpoint policy, SDSC log, a=0.5, U=0.5",
				"Policy", "QoS", "Utilization", "Lost work", "Checkpoints done", "Skipped")
			for i, r := range rs {
				name := points[i].Variant
				if name == "" {
					name = "risk-based"
				}
				t.Add(name, table.Float(r.QoS, 4), table.Float(r.Utilization, 4),
					table.Sci(r.LostWork.NodeSeconds()),
					fmt.Sprintf("%d", r.CheckpointsDone), fmt.Sprintf("%d", r.CheckpointsSkipped))
			}
			return []*table.Table{t}, nil
		},
	}
}

func ablationDeadlineSkip() Experiment {
	return ablation("ablation-deadlineskip",
		"Ablation: deadline-driven checkpoint skipping on vs off",
		"skipping checkpoints is a strategy for meeting deadlines (§3.4)",
		"no-skip")
}

func ablationNegotiation() Experiment {
	return ablation("ablation-negotiation",
		"Ablation: negotiation on vs users always taking the first quote",
		"the market-based dialog is the paper's central contribution",
		"no-negotiate")
}

func ablationBaseRate() Experiment {
	return ablation("ablation-baserate",
		"Ablation: MTBF-floored risk estimate vs pure forecast",
		"DESIGN.md: Equation 1 with pf = forecast alone skips every checkpoint at low a",
		"pure-forecast")
}

func ablationHorizon() Experiment {
	horizons := map[string]string{
		"":            "static (paper)",
		"horizon-48h": "48h half-life",
		"horizon-6h":  "6h half-life",
	}
	var points []PointSpec
	for _, v := range []string{"", "horizon-48h", "horizon-6h"} {
		points = append(points,
			PointSpec{Log: "SDSC", A: 1, U: 0.9, Variant: v},
			PointSpec{Log: "SDSC", A: 0.5, U: 0.5, Variant: v})
	}
	return Experiment{
		ID:     "ablation-horizon",
		Title:  "Ablation: prediction horizon (accuracy decays with forecast distance)",
		Paper:  "§3.3: in practice, predictions are less accurate as they stretch further into the future; the paper's simulator idealizes this away",
		Points: points,
		Run: func(e *Env) ([]*table.Table, error) {
			rs, err := e.reports(points)
			if err != nil {
				return nil, err
			}
			t := table.New("Ablation: prediction horizon, SDSC log",
				"Horizon", "a", "U", "QoS", "Utilization", "Lost work")
			for i, p := range points {
				t.Add(horizons[p.Variant], table.Float(p.A, 1), table.Float(p.U, 1),
					table.Float(rs[i].QoS, 4), table.Float(rs[i].Utilization, 4),
					table.Sci(rs[i].LostWork.NodeSeconds()))
			}
			return []*table.Table{t}, nil
		},
	}
}

func sweepCheckpointParams() Experiment {
	points := make([]PointSpec, len(checkpointGrid))
	for i, p := range checkpointGrid {
		points[i] = PointSpec{Log: "SDSC", A: 0.5, U: 0.5, Variant: checkpointVariant(p)}
	}
	return Experiment{
		ID:     "sweep-checkpoint",
		Title:  "Sweep: checkpoint interval I and overhead C around the Table 2 point",
		Paper:  "Table 2 fixes I=3600 s, C=720 s; the companion periodic-checkpointing study (Oliner et al., IPDPS 2005 workshop) motivates the sensitivity question",
		Points: points,
		Run: func(e *Env) ([]*table.Table, error) {
			rs, err := e.reports(points)
			if err != nil {
				return nil, err
			}
			t := table.New("Sweep: checkpoint parameters, SDSC log, a=0.5, U=0.5",
				"I (s)", "C (s)", "QoS", "Utilization", "Lost work", "Ckpts done")
			for i, params := range checkpointGrid {
				r := rs[i]
				t.Add(
					fmt.Sprintf("%d", int64(params.Interval)),
					fmt.Sprintf("%d", int64(params.Overhead)),
					table.Float(r.QoS, 4), table.Float(r.Utilization, 4),
					table.Sci(r.LostWork.NodeSeconds()),
					fmt.Sprintf("%d", r.CheckpointsDone))
			}
			return []*table.Table{t}, nil
		},
	}
}

func sweepClusterSize() Experiment {
	points := make([]PointSpec, len(clusterSizes))
	for i, n := range clusterSizes {
		points[i] = PointSpec{Log: "SDSC", A: 0.7, U: 0.5, Variant: clusterVariant(n)}
	}
	return Experiment{
		ID:     "sweep-clustersize",
		Title:  "Sweep: cluster size N with proportional workload and failure rate",
		Paper:  "beyond the paper (capacity planning): the paper fixes N=128",
		Points: points,
		Run: func(e *Env) ([]*table.Table, error) {
			rs, err := e.reports(points)
			if err != nil {
				return nil, err
			}
			t := table.New("Sweep: cluster size, SDSC-regime workload, a=0.7, U=0.5",
				"N (nodes)", "Failures", "QoS", "Utilization", "Lost work")
			for i, n := range clusterSizes {
				tr, err := e.clusterTrace(n)
				if err != nil {
					return nil, err
				}
				r := rs[i]
				t.Add(fmt.Sprintf("%d", n), fmt.Sprintf("%d", tr.Len()),
					table.Float(r.QoS, 4), table.Float(r.Utilization, 4),
					table.Sci(r.LostWork.NodeSeconds()))
			}
			return []*table.Table{t}, nil
		},
	}
}

func ablationEstimates() Experiment {
	return ablation("ablation-estimates",
		"Ablation: exact runtime estimates vs ~1.8x user overestimation",
		"§3.3: the simulations assume exact estimates, which 'is not always true in practice'",
		"inflated-estimates")
}

func ablationMonitor() Experiment {
	labels := []string{"oracle a=0.7", "health monitor", "no forecasting"}
	points := []PointSpec{
		{Log: "SDSC", A: 0.7, U: 0.5},
		{Log: "SDSC", A: 0, U: 0.5, Variant: "monitor-predictor"},
		{Log: "SDSC", A: 0, U: 0.5},
	}
	return Experiment{
		ID:     "ablation-monitor",
		Title:  "Ablation: idealized trace predictor vs working health monitor",
		Paper:  "§3.1/§3.2 describe the real mechanism (time-series + event-correlation models, ~70% detection, negligible false positives); the paper's sweeps idealize it as the px<=a oracle",
		Points: points,
		Run: func(e *Env) ([]*table.Table, error) {
			rs, err := e.reports(points)
			if err != nil {
				return nil, err
			}
			t := table.New("Ablation: predictor realism, SDSC log, U=0.5",
				"Predictor", "QoS", "Utilization", "Lost work", "Job failures")
			for i, r := range rs {
				t.Add(labels[i], table.Float(r.QoS, 4), table.Float(r.Utilization, 4),
					table.Sci(r.LostWork.NodeSeconds()), fmt.Sprintf("%d", r.JobFailures))
			}
			return []*table.Table{t}, nil
		},
	}
}

func ablationFailureModel() Experiment {
	models := map[string]string{
		"":                 "trace-driven",
		"weibull-failures": "weibull model",
		"poisson-failures": "poisson model",
	}
	var points []PointSpec
	for _, v := range []string{"", "weibull-failures", "poisson-failures"} {
		for _, a := range []float64{0, 0.5, 1} {
			points = append(points, PointSpec{Log: "SDSC", A: a, U: 0.5, Variant: v})
		}
	}
	return Experiment{
		ID:     "ablation-failuremodel",
		Title:  "Ablation: trace-driven failures vs stochastic models (Poisson, Weibull)",
		Paper:  "§5.1: typical statistical failure models are poor indicators of actual system behavior; a stochastic model is suggested follow-up work",
		Points: points,
		Run: func(e *Env) ([]*table.Table, error) {
			rs, err := e.reports(points)
			if err != nil {
				return nil, err
			}
			t := table.New("Ablation: failure model, SDSC log, U=0.5 (equal mean failure rate)",
				"Failure model", "a", "QoS", "Utilization", "Lost work", "Job failures")
			for i, p := range points {
				r := rs[i]
				t.Add(models[p.Variant], table.Float(p.A, 1),
					table.Float(r.QoS, 4), table.Float(r.Utilization, 4),
					table.Sci(r.LostWork.NodeSeconds()), fmt.Sprintf("%d", r.JobFailures))
			}
			return []*table.Table{t}, nil
		},
	}
}

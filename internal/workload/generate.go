package workload

import (
	"fmt"
	"math"
	"sort"

	"probqos/internal/stats"
	"probqos/internal/units"
)

// GenConfig parameterizes the synthetic log generators.
//
// The generators substitute for the archive logs the paper used (the module
// builds offline, so the real SWF files cannot be fetched; ParseSWF accepts
// them when available). They are calibrated so that the Table 1 aggregate
// characteristics and the offered-load regime of the paper's experiments are
// reproduced; see DESIGN.md §3.
type GenConfig struct {
	// Jobs is the number of jobs to generate. Defaults to 10000, the log
	// length used in the paper.
	Jobs int
	// Seed selects the deterministic random stream. The default 0 is a
	// valid seed.
	Seed int64
	// ClusterNodes caps job sizes. Defaults to 128.
	ClusterNodes int
	// Load is the target offered load (total work / capacity over the
	// arrival span). Defaults to the per-log calibrated value.
	Load float64
	// Diurnal, in [0, 1), superimposes a day/night cycle on the arrival
	// process: the instantaneous arrival rate is modulated by
	// 1 + Diurnal*sin(2*pi*t/day). Zero (the default) keeps the plain
	// bursty process; real archive logs show strong diurnal cycles.
	Diurnal float64
	// EstimateInflation, when positive, gives every job an overestimated
	// user runtime estimate: Estimate = Exec * (1 + Exp(EstimateInflation)),
	// capped at 8x. Zero (the default) keeps the paper's exact estimates.
	// Underestimation (which real sites handle by killing jobs at their
	// estimate) is deliberately not modelled.
	EstimateInflation float64
}

func (c GenConfig) withDefaults(defaultLoad float64) GenConfig {
	if c.Jobs == 0 {
		c.Jobs = 10000
	}
	if c.ClusterNodes == 0 {
		c.ClusterNodes = 128
	}
	if c.Load <= 0 {
		c.Load = defaultLoad
	}
	return c
}

// logShape captures everything that differs between the two synthetic logs.
type logShape struct {
	name string
	// size classes and their sampling weights
	sizes   []int
	weights []float64
	// runtime model: lognormal(mu0 + corr*ln(size), sigma), clamped to
	// [minExec, maxExec]. Larger jobs run longer (corr > 0), which is what
	// puts most of the log's *work* in its long large jobs.
	mu0, sigma, corr float64
	minExec, maxExec units.Duration
	// maxNodeHours caps exec*size, modeling the per-queue runtime limits
	// production schedulers impose: long runtimes are only reachable at
	// small node counts (the archive logs' 100h+ jobs are narrow ones).
	maxNodeHours float64
	// burstShape < 1 makes inter-arrival gaps Weibull-bursty.
	burstShape  float64
	defaultLoad float64
}

// nasaShape reproduces the NASA Ames iPSC/860 log regime: strictly
// power-of-two sizes, short average runtime (Table 1: avg 6.3 nodes, avg
// 381 s, max 12 h), relatively light load.
var nasaShape = logShape{
	name:         "NASA",
	sizes:        []int{1, 2, 4, 8, 16, 32, 64, 128},
	weights:      []float64{0.34, 0.24, 0.17, 0.115, 0.075, 0.040, 0.014, 0.006},
	mu0:          4.02,
	sigma:        1.55,
	corr:         0.50,
	minExec:      1,
	maxExec:      12 * units.Hour,
	maxNodeHours: 800,
	burstShape:   0.65,
	defaultLoad:  0.72,
}

// sdscShape reproduces the SDSC SP log regime: arbitrary ("odd") sizes that
// fragment the node pool, long heavy-tailed runtimes (Table 1: avg 9.7
// nodes, avg 7722 s, max 132 h), heavier load.
var sdscShape = logShape{
	name:         "SDSC",
	sizes:        nil, // filled by init-time builder below
	weights:      nil,
	mu0:          7.08,
	sigma:        1.75,
	corr:         0.28,
	minExec:      10,
	maxExec:      132 * units.Hour,
	maxNodeHours: 2300,
	burstShape:   0.70,
	defaultLoad:  0.72,
}

// buildSDSCSizes fills the SDSC size mixture: a geometric-ish spread over
// all sizes 1..128 with extra mass on the popular small sizes and on the
// power-of-two "natural" sizes, yielding a mean near 9.7 with plenty of odd
// sizes in between.
func buildSDSCSizes() ([]int, []float64) {
	sizes := make([]int, 0, 128)
	weights := make([]float64, 0, 128)
	for s := 1; s <= 128; s++ {
		w := math.Pow(float64(s), -1.48) // heavy preference for small jobs
		switch s {
		case 8, 16:
			w *= 4.0
		case 32:
			w *= 4.0
		case 64:
			w *= 5.0
		case 128:
			w *= 5.0
		}
		sizes = append(sizes, s)
		weights = append(weights, w)
	}
	return sizes, weights
}

// GenerateNASA returns a synthetic log in the NASA iPSC/860 regime.
func GenerateNASA(cfg GenConfig) *Log { return generate(nasaShape, cfg) }

// GenerateSDSC returns a synthetic log in the SDSC SP regime.
func GenerateSDSC(cfg GenConfig) *Log { return generate(sdscShape, cfg) }

// Generate returns the named synthetic log ("NASA" or "SDSC").
func Generate(name string, cfg GenConfig) (*Log, error) {
	shape, err := shapeOf(name)
	if err != nil {
		return nil, err
	}
	return generate(shape, cfg), nil
}

// Resolve returns the generator's full input for the named log: the
// canonical log name and cfg with every default filled in. Equal resolved
// inputs generate equal logs, so they can key a cache of generated logs.
func Resolve(name string, cfg GenConfig) (string, GenConfig, error) {
	shape, err := shapeOf(name)
	if err != nil {
		return "", GenConfig{}, err
	}
	return shape.name, cfg.withDefaults(shape.defaultLoad), nil
}

// shapeOf returns the shape of the named synthetic log.
func shapeOf(name string) (logShape, error) {
	switch name {
	case "NASA", "nasa":
		return nasaShape, nil
	case "SDSC", "sdsc":
		return sdscShape, nil
	}
	return logShape{}, fmt.Errorf("workload: unknown synthetic log %q (want NASA or SDSC)", name)
}

func generate(shape logShape, cfg GenConfig) *Log {
	cfg = cfg.withDefaults(shape.defaultLoad)
	if shape.sizes == nil {
		shape.sizes, shape.weights = buildSDSCSizes()
	}
	src := stats.NewSource(cfg.Seed ^ int64(len(shape.name))<<32)
	sizeSrc := src.Split(shape.name + "/size")
	runSrc := src.Split(shape.name + "/runtime")
	arrSrc := src.Split(shape.name + "/arrival")

	choice := stats.NewWeightedChoice(shape.weights)
	jobs := make([]Job, cfg.Jobs)
	var totalWork float64
	for i := range jobs {
		size := shape.sizes[choice.Sample(sizeSrc)]
		if size > cfg.ClusterNodes {
			size = cfg.ClusterNodes
		}
		mu := shape.mu0 + shape.corr*math.Log(float64(size))
		exec := units.Duration(math.Round(runSrc.LogNormal(mu, shape.sigma)))
		if exec < shape.minExec {
			exec = shape.minExec
		}
		if exec > shape.maxExec {
			exec = shape.maxExec
		}
		if cap := shape.maxNodeHours; cap > 0 {
			if limit := units.Duration(cap * 3600 / float64(size)); exec > limit {
				exec = limit
			}
		}
		jobs[i] = Job{ID: i + 1, Nodes: size, Exec: exec}
		if cfg.EstimateInflation > 0 {
			factor := 1 + runSrc.Exp(cfg.EstimateInflation)
			if factor > 8 {
				factor = 8
			}
			// An estimate that rounds to the exact runtime carries no
			// information; keep the zero ("exact") encoding for it.
			if est := units.Duration(math.Round(float64(exec) * factor)); est > exec {
				jobs[i].Estimate = est
			}
		}
		totalWork += float64(size) * float64(exec)
	}

	// Arrival process: bursty Weibull gaps, optionally modulated by a
	// diurnal cycle, rescaled so that the offered load over the arrival
	// span hits cfg.Load exactly.
	span := totalWork / (cfg.Load * float64(cfg.ClusterNodes))
	gaps := make([]float64, cfg.Jobs)
	var gapSum float64
	for i := range gaps {
		gaps[i] = arrSrc.Weibull(shape.burstShape, 1)
		gapSum += gaps[i]
	}
	if cfg.Diurnal > 0 {
		// Map the cumulative gap positions through the inverse of the
		// cumulative modulated rate Λ(t) = t + A·(day/2π)(1 − cos(2πt/day)),
		// so arrivals are dense where the instantaneous rate
		// 1 + A·sin(2πt/day) is high while the span stays exact.
		lambdaTotal := diurnalLambda(span, cfg.Diurnal)
		cum := 0.0
		for i := range jobs {
			cum += gaps[i]
			target := cum / gapSum * lambdaTotal
			jobs[i].Arrival = units.Time(math.Round(invertDiurnalLambda(target, span, cfg.Diurnal)))
		}
	} else {
		scale := span / gapSum
		t := 0.0
		for i := range jobs {
			t += gaps[i] * scale
			jobs[i].Arrival = units.Time(math.Round(t))
		}
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Arrival < jobs[j].Arrival })
	for i := range jobs {
		jobs[i].ID = i + 1 // renumber in arrival order
	}
	return &Log{Name: shape.name, Jobs: jobs}
}

// diurnalLambda is the cumulative arrival-rate integral of the modulated
// process: Λ(t) = t + A·(day/2π)(1 − cos(2πt/day)).
func diurnalLambda(t, amplitude float64) float64 {
	day := units.Day.Seconds()
	return t + amplitude*day/(2*math.Pi)*(1-math.Cos(2*math.Pi*t/day))
}

// invertDiurnalLambda solves Λ(t) = target for t by bisection; Λ is
// strictly increasing for amplitude < 1.
func invertDiurnalLambda(target, span, amplitude float64) float64 {
	lo, hi := 0.0, span
	for diurnalLambda(hi, amplitude) < target {
		hi += span/16 + 1
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if diurnalLambda(mid, amplitude) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

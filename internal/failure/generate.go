package failure

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"probqos/internal/stats"
	"probqos/internal/units"
)

// RawConfig parameterizes the raw RAS log generator.
//
// The generator substitutes for the harvested 400-machine AIX event log the
// paper used (no supercomputer failure trace was publicly available then, and
// this module builds offline). It reproduces the properties the paper says
// matter: bursty failure arrivals, per-node skew (a few flaky nodes), and
// fatal events preceded by lower-severity misbehavior and accompanied by
// redundant same-root-cause events that filtering must remove.
type RawConfig struct {
	// Nodes is the cluster size. Defaults to 128.
	Nodes int
	// Span is the log duration. Defaults to one year.
	Span units.Duration
	// Seed selects the deterministic random stream.
	Seed int64
	// Episodes is the number of root-cause fault episodes. Each episode
	// yields exactly one filtered failure. Defaults to 1021, the filtered
	// count in the paper (cluster MTBF 8.5 h over a year on 128 nodes).
	Episodes int
	// BurstShape < 1 makes episode inter-arrival gaps heavy-tailed
	// (bursty). Defaults to 0.45.
	BurstShape float64
	// NoisePerNodePerDay is the rate of benign INFO/WARNING background
	// events per node per day. Defaults to 4.
	NoisePerNodePerDay float64
}

func (c RawConfig) withDefaults() RawConfig {
	if c.Nodes == 0 {
		c.Nodes = 128
	}
	if c.Span == 0 {
		c.Span = units.Year
	}
	if c.Episodes == 0 {
		c.Episodes = 1021
	}
	if c.BurstShape <= 0 {
		c.BurstShape = 0.45
	}
	if c.NoisePerNodePerDay <= 0 {
		c.NoisePerNodePerDay = 4
	}
	return c
}

// rawSeedMix decorrelates the raw generator's root stream from the seed.
const rawSeedMix = 0x5fe7a31

// GenerateRawLog produces an unfiltered RAS event log: benign background
// noise, precursor warnings, fatal events, and redundant fatal duplicates
// that share a root cause with a nearby fatal event.
func GenerateRawLog(cfg RawConfig) []RawEvent {
	cfg = cfg.withDefaults()
	src := stats.NewSource(cfg.Seed ^ rawSeedMix)
	events := generateEpisodes(cfg, src, false)

	// Benign background noise across all nodes, from a stream of its own:
	// GenerateTrace skips it without disturbing the episodes.
	noiseSrc := src.Split("noise")
	days := cfg.Span.Seconds() / units.Day.Seconds()
	noiseCount := noiseSrc.Poisson(cfg.NoisePerNodePerDay * float64(cfg.Nodes) * days)
	events = slices.Grow(events, noiseCount)
	for i := 0; i < noiseCount; i++ {
		sev := Info
		if noiseSrc.Bool(0.25) {
			sev = Warning
		}
		events = append(events, RawEvent{
			Time:      units.Time(noiseSrc.Int63n(int64(cfg.Span))),
			Node:      noiseSrc.Intn(cfg.Nodes),
			Severity:  sev,
			Subsystem: Subsystems[noiseSrc.Intn(len(Subsystems))],
		})
	}

	sortByTime(events)
	return events
}

// generateEpisodes produces the root-cause fault episodes of the raw log,
// in generation order, drawing from the episodes and nodes streams split
// off src. With criticalOnly it keeps only the FATAL/FAILURE events; every
// random draw is made either way, so the kept events are the same.
func generateEpisodes(cfg RawConfig, src *stats.Source, criticalOnly bool) []RawEvent {
	epSrc := src.Split("episodes")
	nodeSrc := src.Split("nodes")

	var events []RawEvent
	emit := func(e RawEvent) {
		if !criticalOnly || e.Severity >= Fatal {
			events = append(events, e)
		}
	}

	// Per-node flakiness skew: Zipf-ish weights so a handful of nodes
	// account for a disproportionate share of failures, as observed in the
	// AIX study (Sahoo et al. 2004).
	weights := make([]float64, cfg.Nodes)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -0.45)
	}
	nodeSrc.Shuffle(cfg.Nodes, func(i, j int) { weights[i], weights[j] = weights[j], weights[i] })
	nodePick := stats.NewWeightedChoice(weights)

	// Episode arrival times: bursty Weibull gaps normalized to the span.
	gaps := make([]float64, cfg.Episodes)
	var gapSum float64
	for i := range gaps {
		gaps[i] = epSrc.Weibull(cfg.BurstShape, 1)
		gapSum += gaps[i]
	}
	scale := cfg.Span.Seconds() / gapSum
	t := 0.0
	for i := 0; i < cfg.Episodes; i++ {
		t += gaps[i] * scale
		at := units.Time(math.Round(t))
		node := nodePick.Sample(epSrc)
		sub := Subsystems[epSrc.Intn(len(Subsystems))]

		// Precursor misbehavior: warnings/errors in the minutes to hours
		// before the fatal event. These are what real predictors learn
		// from; here they document the causal texture the filter must look
		// past.
		for k, n := 0, 1+epSrc.Intn(4); k < n; k++ {
			lead := units.Duration(60 + epSrc.Intn(4*int(units.Hour)))
			sev := Warning
			if epSrc.Bool(0.4) {
				sev = Error
			}
			emit(RawEvent{Time: at.Add(-lead), Node: node, Severity: sev, Subsystem: sub})
		}

		// The fatal event itself.
		sev := Fatal
		if epSrc.Bool(0.5) {
			sev = Failure
		}
		emit(RawEvent{Time: at, Node: node, Severity: sev, Subsystem: sub})

		// Redundant fatals sharing the root cause: repeats on the same node
		// within seconds, and with some probability a sympathetic fatal on
		// another node (e.g. a shared switch). The filter must coalesce all
		// of these into the one episode failure.
		for k, n := 0, epSrc.Intn(3); k < n; k++ {
			emit(RawEvent{
				Time: at.Add(units.Duration(1 + epSrc.Intn(90))), Node: node,
				Severity: sev, Subsystem: sub,
			})
		}
		if epSrc.Bool(0.25) {
			other := nodePick.Sample(epSrc)
			emit(RawEvent{
				Time: at.Add(units.Duration(1 + epSrc.Intn(60))), Node: other,
				Severity: Fatal, Subsystem: sub,
			})
		}
	}

	return events
}

// sortByTime sorts events by time, keeping generation order among ties:
// the order a stable sort gives. When the time span and the positions fit
// in one word, it sorts packed (time − first, position) keys, which are
// all distinct, with an unstable sort and then gathers the events once,
// instead of a stable sort's O(n log² n) moves of whole events.
func sortByTime(events []RawEvent) {
	byTime := func(a, b RawEvent) int { return cmp.Compare(a.Time, b.Time) }
	if slices.IsSortedFunc(events, byTime) {
		return
	}
	lo, hi := events[0].Time, events[0].Time
	for _, e := range events {
		lo, hi = min(lo, e.Time), max(hi, e.Time)
	}
	posBits := bits.Len(uint(len(events)))
	if bits.Len64(uint64(hi-lo))+posBits > 64 {
		slices.SortStableFunc(events, byTime)
		return
	}
	keys := make([]uint64, len(events))
	for i, e := range events {
		keys[i] = uint64(e.Time-lo)<<posBits | uint64(i)
	}
	slices.Sort(keys)
	sorted := make([]RawEvent, len(events))
	mask := uint64(1)<<posBits - 1
	for i, k := range keys {
		sorted[i] = events[k&mask]
	}
	copy(events, sorted)
}

// FilterConfig parameterizes the raw-log filtering pipeline.
type FilterConfig struct {
	// Window is the coalescing window: critical events in the same
	// subsystem within Window of an already-kept failure are treated as
	// sharing its root cause and dropped. Defaults to 5 minutes, in line
	// with the BlueGene/L filtering study.
	Window units.Duration
	// Seed selects the stream used to assign static detectabilities p_x to
	// the surviving failures.
	Seed int64
}

func (c FilterConfig) withDefaults() FilterConfig {
	if c.Window == 0 {
		c.Window = 5 * units.Minute
	}
	return c
}

// Filter runs the two-stage filtering pipeline of §4.3 on a raw log:
//
//  1. isolate events of the highest severities (FATAL and FAILURE);
//  2. coalesce clusters of critical events that share a root cause —
//     same-subsystem events within the coalescing window, whether on the
//     same node (repeats) or on other nodes (sympathetic failures) — keeping
//     only the first event of each cluster.
//
// Each surviving failure is assigned a static detectability p_x drawn
// uniformly from [0, 1), per §4.3. The result is a trace over a cluster of
// nodes nodes.
func Filter(raw []RawEvent, nodes int, cfg FilterConfig) (*Trace, error) {
	critical := make([]RawEvent, 0, len(raw)/4)
	for _, e := range raw {
		if e.Severity >= Fatal {
			critical = append(critical, e)
		}
	}
	return coalesce(critical, nodes, cfg)
}

// coalesce is Filter's second stage and detectability draw over events
// already restricted to the critical severities. It stable-sorts them by
// time first, so their order on entry matters only among equal times.
func coalesce(critical []RawEvent, nodes int, cfg FilterConfig) (*Trace, error) {
	cfg = cfg.withDefaults()
	sortByTime(critical)

	// lastKept[subsystem] is the time of the most recently kept failure in
	// that subsystem; anything critical in the same subsystem within the
	// window shares its root cause.
	lastKept := make(map[Subsystem]units.Time, len(Subsystems))
	detect := stats.NewSource(cfg.Seed ^ 0x9e3779b9)
	var kept []Event
	for _, e := range critical {
		if t, ok := lastKept[e.Subsystem]; ok && e.Time.Sub(t) < cfg.Window {
			continue
		}
		lastKept[e.Subsystem] = e.Time
		kept = append(kept, Event{
			Time:          e.Time,
			Node:          e.Node,
			Detectability: detect.Float64(),
		})
	}
	return NewTrace(nodes, kept)
}

// GenerateTrace is the convenience path: the trace Filter makes of
// GenerateRawLog's log, built without the log. It is what the
// simulator-facing callers use; cmd/tracefilter exposes the two stages
// separately. The benign noise never survives Filter and has a stream of
// its own, so it is not generated at all; the critical episode events are
// selected as they are generated, and stable-sorting that selection gives
// the order that stable-sorting the raw log and then selecting would.
func GenerateTrace(cfg RawConfig, fcfg FilterConfig) (*Trace, error) {
	cfg = cfg.withDefaults()
	if fcfg.Seed == 0 {
		fcfg.Seed = cfg.Seed
	}
	critical := generateEpisodes(cfg, stats.NewSource(cfg.Seed^rawSeedMix), true)
	return coalesce(critical, cfg.Nodes, fcfg)
}

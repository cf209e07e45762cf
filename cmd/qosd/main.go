// Command qosd serves the paper's §5 deadline-negotiation dialog as a
// long-running HTTP/JSON daemon over a live cluster state.
//
// Usage:
//
//	qosd [-addr host:port] [-nodes N] [-failures trace.csv] [-seed S]
//	     [-a accuracy] [-speedup X] [-ttl-mins M] [-max-quotes K]
//	     [-max-outstanding J] [-data-dir DIR] [-snapshot-every N]
//	     [-trace-spans N]
//
// Without -failures a synthetic trace matching the paper's AIX failure
// data is generated for the cluster. The virtual clock is manual by
// default (drive it with POST /v1/advance); -speedup X makes one wall
// second advance the clock by X virtual seconds.
//
// With -data-dir the daemon is crash-safe: every state mutation is
// appended to a write-ahead log in DIR before it is applied, compacted
// into snapshots on a risk-based cadence, and replayed on restart so
// admitted jobs and their deadline promises survive a kill -9.
//
// With -trace-spans N every request is traced: responses carry an
// X-Qos-Trace ID and Server-Timing header, and /debug/trace exports the
// last N spans as Chrome trace_event JSON (chrome://tracing, Perfetto).
//
// API: POST /v1/quote, POST /v1/accept, GET /v1/jobs, GET /v1/jobs/{id},
// POST /v1/faults, POST /v1/advance, GET /v1/state, GET /qos/conformance,
// GET /qos/report, GET /debug/trace, plus /metrics, /healthz, and /snapshot from the
// instrumentation layer. See cmd/qosctl for a command-line client and
// README.md for a curl walkthrough.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"probqos"
)

func main() {
	if err := run(os.Stdout, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "qosd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until stop closes or a termination
// signal arrives. A nil stop means "signals only" (production); tests pass
// their own channel. The bound address is printed on out as the first
// line, so callers binding :0 can discover the port.
func run(out io.Writer, args []string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("qosd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:9120", "listen address for the negotiation API")
		nodes       = fs.Int("nodes", 128, "cluster size")
		failureFile = fs.String("failures", "", "failure trace CSV (default: synthetic AIX-like trace)")
		seed        = fs.Int64("seed", 0, "seed for the synthetic failure trace")
		accuracy    = fs.Float64("a", 0.5, "event prediction accuracy in [0,1]")
		speedup     = fs.Float64("speedup", 0, "virtual seconds per wall second (0 = manual clock via /v1/advance)")
		ttlMins     = fs.Float64("ttl-mins", 60, "session TTL in virtual minutes: how long a quote stands")
		maxQuotes   = fs.Int("max-quotes", 8, "maximum offers per quote request")
		maxOut      = fs.Int("max-outstanding", 0, "admission limit on open promises (0 = unlimited)")
		dataDir     = fs.String("data-dir", "", "durable state directory (empty = memory only)")
		snapEvery   = fs.Int("snapshot-every", 0, "hard cap on WAL records between snapshots (0 = default)")
		traceSpans  = fs.Int("trace-spans", 0, "request-tracing span budget (0 = tracing disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	trace, err := loadFailures(*failureFile, *nodes, *seed)
	if err != nil {
		return err
	}

	cfg := probqos.NewQoSServiceConfig(trace)
	cfg.Nodes = *nodes
	cfg.Accuracy = *accuracy
	cfg.Speedup = *speedup
	cfg.SessionTTL = probqos.Duration(*ttlMins * 60)
	cfg.MaxQuotes = *maxQuotes
	cfg.MaxOutstanding = *maxOut
	cfg.DataDir = *dataDir
	cfg.SnapshotEvery = *snapEvery
	if *traceSpans > 0 {
		cfg.Tracer = probqos.NewTracer(*traceSpans)
	}

	svc, err := probqos.NewQoSService(cfg)
	if err != nil {
		return err
	}
	bound, err := svc.Start(*addr)
	if err != nil {
		svc.Close()
		return err
	}
	fmt.Fprintf(out, "qosd listening on %s (%d nodes, a=%.2f, speedup=%g)\n",
		bound, *nodes, *accuracy, *speedup)
	if *traceSpans > 0 {
		fmt.Fprintf(out, "qosd tracing on (%d-span budget; X-Qos-Trace, Server-Timing, /debug/trace)\n",
			*traceSpans)
	}
	if info := svc.RecoveryInfo(); info.Enabled {
		kind := "fresh state"
		if info.SnapshotLoaded || info.RecordsReplayed > 0 {
			kind = "clean shutdown"
			if !info.Clean {
				kind = "crash recovery"
			}
		}
		fmt.Fprintf(out, "qosd durable in %s (%s: snapshot=%v, replayed=%d records)\n",
			*dataDir, kind, info.SnapshotLoaded, info.RecordsReplayed)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		fmt.Fprintf(out, "qosd: %v, draining\n", s)
	case <-stop:
	}
	return svc.Close()
}

// loadFailures reads a failure trace CSV, or generates the synthetic
// AIX-like trace when path is empty.
func loadFailures(path string, nodes int, seed int64) (*probqos.FailureTrace, error) {
	if path == "" {
		return probqos.GenerateFailureTrace(
			probqos.RawLogConfig{Nodes: nodes, Seed: seed}, probqos.FilterConfig{Seed: seed})
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return probqos.ParseFailureTrace(nodes, f)
}

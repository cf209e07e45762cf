package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// digestFile is the output digests recorded for a range of seeds: one per
// Figure-1 pass, and one per qosd input stream (both qosd workloads share
// them, since durability must not change any outcome). Regenerate it with
//
//	go run . --record 0:63 > digests.json   (from this directory; about 40 minutes)
//
// whenever the program's outputs change on purpose.
type digestFile struct {
	Fig1 map[string]string   `json:"fig1-sdsc"`
	Qosd map[string][]string `json:"qosd"`
}

//go:embed digests.json
var digestsJSON []byte

var recorded = func() digestFile {
	var d digestFile
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		panic("qosbench: digests.json: " + err.Error())
	}
	return d
}()

// seeds describes the recorded seeds as from-to, assuming no gaps.
func (d digestFile) seeds() string {
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	for k := range d.Fig1 {
		if n, err := strconv.ParseInt(k, 10, 64); err == nil {
			first, last = min(first, n), max(last, n)
		}
	}
	if first > last {
		return "none"
	}
	return fmt.Sprintf("%d-%d", first, last)
}

func seedKey(seed int64) string { return strconv.FormatInt(seed, 10) }

// recordDigests computes the digests for seeds from..to (inclusive),
// insisting that every path agrees: untraced and traced passes for
// Figure 1; memory, durable and in-process replays of every qosd stream.
func recordDigests(spec, buildDir string, w io.Writer) error {
	from, to, err := parseRange(spec)
	if err != nil {
		return err
	}
	out := digestFile{Fig1: map[string]string{}, Qosd: map[string][]string{}}
	for seed := from; seed <= to; seed++ {
		key := seedKey(seed)
		cells, _, err := setupFig1(seed)
		if err != nil {
			return err
		}
		var fig1 []string
		for _, probe := range []*layerProbe{nil, {}} {
			sw, err := runSweep(cells, probe)
			if err != nil {
				return err
			}
			fig1 = append(fig1, sw.digest)
		}
		if out.Fig1[key], err = agree(fmt.Sprintf("seed %d fig1-sdsc", seed), fig1); err != nil {
			return err
		}

		inputs, _, err := setupQosd(options{workload: "qosd-memory", seed: seed, buildDir: buildDir})
		if err != nil {
			return err
		}
		for i, in := range inputs {
			var qosd []string
			for _, run := range []struct {
				workload string
				kind     replayKind
			}{
				{"qosd-memory", plainHTTP},
				{"qosd-durable", plainHTTP},
				{"qosd-memory", inProcess},
			} {
				o := options{workload: run.workload, seed: seed, buildDir: buildDir}
				r, err := replayInput(o, in, run.kind)
				if err != nil {
					return err
				}
				if r.failed > 0 {
					return fmt.Errorf("seed %d stream %d: %s %s: %d of %d promises failed",
						seed, i, run.workload, run.kind, r.failed, r.promises)
				}
				qosd = append(qosd, r.digest)
			}
			d, err := agree(fmt.Sprintf("seed %d qosd stream %d", seed, i), qosd)
			if err != nil {
				return err
			}
			out.Qosd[key] = append(out.Qosd[key], d)
		}
		fmt.Fprintf(os.Stderr, "seed %d recorded\n", seed)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func agree(what string, digests []string) (string, error) {
	for _, d := range digests[1:] {
		if d != digests[0] {
			return "", fmt.Errorf("%s: paths disagree: %v", what, digests)
		}
	}
	return digests[0], nil
}

func parseRange(spec string) (int64, int64, error) {
	a, b, ok := strings.Cut(spec, ":")
	from, err1 := strconv.ParseInt(a, 10, 64)
	to, err2 := strconv.ParseInt(b, 10, 64)
	if !ok || err1 != nil || err2 != nil || to < from {
		return 0, 0, fmt.Errorf("--record wants from:to, got %q", spec)
	}
	return from, to, nil
}

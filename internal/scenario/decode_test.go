package scenario

import (
	"reflect"
	"strings"
	"testing"

	"probqos/internal/checkpoint"
)

const yamlDoc = `# full-surface scenario
name: decode-check
description: "quoted: with # punctuation"
seed: 42
fleet:
  nodes: 16
  rack_size: 4
  accuracy: 0.75
  user_risk: 0.5
  checkpoint:
    interval_s: 3600
    overhead_s: 720
  downtime_s: 120   # trailing comment
  policy: risk
  fault_aware: false
  failures:
    mtbf_s: 28800
    shape: 0.7
events:
  - at_s: 0
    action: arrival_burst
    burst:
      jobs: 3
      min_nodes: 1
      max_nodes: 4
      min_exec_s: 600
      max_exec_s: 1200
      spread_s: 300
      user_risk: 0.9
  - at_s: 500
    action: inject_failure
    inject:
      nodes: [1, 2]
      stagger_s: 60
  - at_s: 900
    action: maintenance_window
    maintenance:
      nodes: [3]
      duration_s: 600
  - at_s: 1000
    action: mtbf_shift
    shift:
      factor: 0.5
  - at_s: 2000
    action: drain
assertions:
  - type: qos_floor
    min: 0.5
  - type: utilization_band
    min: 0.1
    max: 0.9
`

func TestDecodeYAML(t *testing.T) {
	s, err := Decode("doc.yaml", []byte(yamlDoc))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if s.Name != "decode-check" || s.Seed != 42 {
		t.Fatalf("header mismatch: %+v", s)
	}
	if s.Description != "quoted: with # punctuation" {
		t.Fatalf("quoted description mangled: %q", s.Description)
	}
	f := s.Fleet
	if f.Nodes != 16 || f.RackSize != 4 || f.Accuracy != 0.75 || f.UserRisk != 0.5 {
		t.Fatalf("fleet mismatch: %+v", f)
	}
	if f.FaultAware {
		t.Fatal("fault_aware: false not applied")
	}
	if !f.DeadlineSkip || !f.BaseRateFloor {
		t.Fatal("unset switches should default on")
	}
	if f.Downtime != 120 || f.Failures.MTBF != 28800 || f.Failures.Shape != 0.7 {
		t.Fatalf("fleet numbers mismatch: %+v", f)
	}
	if len(s.Events) != 5 {
		t.Fatalf("want 5 events, got %d", len(s.Events))
	}
	b := s.Events[0].Burst
	if b == nil || b.Jobs != 3 || b.MinExec != 600 || b.MaxExec != 1200 || b.UserRisk != 0.9 {
		t.Fatalf("burst mismatch: %+v", b)
	}
	if in := s.Events[1].Inject; in == nil || !reflect.DeepEqual(in.Nodes, []int{1, 2}) || in.Stagger != 60 {
		t.Fatalf("inject mismatch: %+v", s.Events[1].Inject)
	}
	if m := s.Events[2].Maintenance; m == nil || m.Duration != 600 {
		t.Fatalf("maintenance mismatch: %+v", s.Events[2].Maintenance)
	}
	if sh := s.Events[3].Shift; sh == nil || sh.Factor != 0.5 {
		t.Fatalf("shift mismatch: %+v", s.Events[3].Shift)
	}
	if s.Events[4].Action != ActionDrain || s.Events[4].At != 2000 {
		t.Fatalf("drain mismatch: %+v", s.Events[4])
	}
	if len(s.Asserts) != 2 || s.Asserts[1].Max != 0.9 {
		t.Fatalf("assertions mismatch: %+v", s.Asserts)
	}
}

// Burst user_risk left unset means "fleet default", encoded as -1.
func TestDecodeBurstDefaultUserRisk(t *testing.T) {
	doc := strings.Replace(yamlDoc, "      user_risk: 0.9\n", "", 1)
	s, err := Decode("doc.yaml", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Events[0].Burst.UserRisk; got != -1 {
		t.Fatalf("default burst user_risk = %v, want -1", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		file string
		src  string
		want []string // all must appear in the error text
	}{
		{
			name: "tab indentation",
			file: "bad.yaml",
			src:  "name: x\n\tseed: 1\n",
			want: []string{"bad.yaml:2:1", "tab in indentation"},
		},
		{
			name: "duplicate key",
			file: "bad.yaml",
			src:  "name: x\nseed: 1\nseed: 2\n",
			want: []string{"bad.yaml:3:", "duplicate key \"seed\""},
		},
		{
			name: "unknown key",
			file: "bad.yaml",
			src:  "name: x\nseed: 1\nbogus: 3\nfleet:\n  nodes: 4\n  accuracy: 1\n  user_risk: 1\n  checkpoint:\n    interval_s: 10\n    overhead_s: 1\n  downtime_s: 10\n  policy: risk\n",
			want: []string{"bad.yaml:3:8", "unknown key \"bogus\""},
		},
		{
			name: "non-integer seed",
			file: "bad.yaml",
			src:  "name: x\nseed: soon\n",
			want: []string{"bad.yaml:2:7", "seed must be an integer"},
		},
		{
			name: "missing key colon",
			file: "bad.yaml",
			src:  "name: x\nseed\n",
			want: []string{"bad.yaml:2:1", "expected `key: value`"},
		},
		{
			name: "unterminated flow list",
			file: "bad.yaml",
			src:  "name: x\nseed: 1\nlist: [1, 2\n",
			want: []string{"bad.yaml:3:7", "closing ']'"},
		},
		{
			name: "unordered events",
			file: "bad.yaml",
			src: "name: x\nseed: 1\nfleet:\n  nodes: 4\n  accuracy: 1\n  user_risk: 1\n  checkpoint:\n    interval_s: 10\n    overhead_s: 1\n  downtime_s: 10\n  policy: risk\nevents:\n" +
				"  - at_s: 100\n    action: drain\n  - at_s: 50\n    action: drain\n",
			want: []string{"bad.yaml", "order events by at"},
		},
		{
			name: "unknown action",
			file: "bad.yaml",
			src: "name: x\nseed: 1\nfleet:\n  nodes: 4\n  accuracy: 1\n  user_risk: 1\n  checkpoint:\n    interval_s: 10\n    overhead_s: 1\n  downtime_s: 10\n  policy: risk\nevents:\n" +
				"  - at_s: 0\n    action: explode\n",
			want: []string{"bad.yaml:13:5", "unknown action \"explode\""},
		},
		{
			name: "flow mapping rejected",
			file: "bad.yaml",
			src:  "name: x\nseed: 1\nfleet: {nodes: 4}\n",
			want: []string{"bad.yaml:3:8", "outside the supported YAML subset"},
		},
		{
			name: "mtbf shift without model",
			file: "bad.yaml",
			src: "name: x\nseed: 1\nfleet:\n  nodes: 4\n  accuracy: 1\n  user_risk: 1\n  checkpoint:\n    interval_s: 10\n    overhead_s: 1\n  downtime_s: 10\n  policy: risk\nevents:\n" +
				"  - at_s: 0\n    action: mtbf_shift\n    shift:\n      factor: 0.5\n",
			want: []string{"no background failure model"},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.file, []byte(tc.src))
			if err == nil {
				t.Fatal("decode unexpectedly succeeded")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q\nmissing %q", err, want)
				}
			}
		})
	}
}

// Multiple bad fields surface in one pass: the binder joins its errors
// instead of stopping at the first.
func TestDecodeReportsMultipleErrors(t *testing.T) {
	src := "name: x\nseed: soon\nbogus: 1\nfleet:\n  nodes: many\n  accuracy: 1\n  user_risk: 1\n  checkpoint:\n    interval_s: 10\n    overhead_s: 1\n  downtime_s: 10\n  policy: risk\n"
	_, err := Decode("multi.yaml", []byte(src))
	if err == nil {
		t.Fatal("decode unexpectedly succeeded")
	}
	for _, want := range []string{"seed must be an integer", "unknown key \"bogus\"", "fleet.nodes must be an integer"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q\nmissing %q", err, want)
		}
	}
}

func TestValidateProgrammatic(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Name: "v", Seed: 1,
			Fleet: Fleet{
				Nodes: 8, Accuracy: 0.5, UserRisk: 0.5,
				Checkpoint: checkpoint.DefaultParams(), Downtime: 60, Policy: "risk",
			},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base scenario invalid: %v", err)
	}
	tests := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"no name", func(s *Scenario) { s.Name = "" }, "name is required"},
		{"bad policy", func(s *Scenario) { s.Fleet.Policy = "magic" }, "unknown policy"},
		{"bad accuracy", func(s *Scenario) { s.Fleet.Accuracy = 1.5 }, "accuracy"},
		{"rack too big", func(s *Scenario) { s.Fleet.RackSize = 99 }, "rack_size"},
		{"shapeless mtbf", func(s *Scenario) { s.Fleet.Failures.MTBF = 100 }, "shape must be positive"},
		{"burst without payload", func(s *Scenario) {
			s.Events = []Event{{Action: ActionArrivalBurst}}
		}, "missing burst payload"},
		{"node out of range", func(s *Scenario) {
			s.Events = []Event{{Action: ActionInjectFail, Inject: &Inject{Nodes: []int{8}}}}
		}, "node 8 outside [0,8)"},
		{"bad assertion", func(s *Scenario) {
			s.Asserts = []Assertion{{Type: "sideways"}}
		}, "unknown assertion type"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mut(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate unexpectedly passed")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q missing %q", err, tc.want)
			}
		})
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testScenario = `name: cli-smoke
description: two tiny jobs on a quiet fleet
seed: 7
fleet:
  nodes: 8
  accuracy: 0.9
  user_risk: 0.5
  checkpoint:
    interval_s: 3600
    overhead_s: 720
  downtime_s: 120
  policy: risk
events:
  - at_s: 0
    action: arrival_burst
    burst:
      jobs: 2
      min_nodes: 1
      max_nodes: 2
      min_exec_s: 600
      max_exec_s: 1200
assertions:
  - type: min_completed
    min: 2
`

func writeScenario(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSubcommandExecutesScenario(t *testing.T) {
	path := writeScenario(t, "smoke.yaml", testScenario)
	var sb strings.Builder
	if err := run(&sb, []string{"run", path}); err != nil {
		t.Fatal(err)
	}
	var report struct {
		Scenario string `json:"scenario"`
		OK       bool   `json:"ok"`
		Jobs     struct {
			Completed int `json:"completed"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &report); err != nil {
		t.Fatalf("invalid report JSON: %v\n%s", err, sb.String())
	}
	if report.Scenario != "cli-smoke" || !report.OK || report.Jobs.Completed != 2 {
		t.Errorf("report = %+v, want cli-smoke ok with 2 completed", report)
	}
}

func TestRunSubcommandFailsOnBrokenAssertions(t *testing.T) {
	impossible := strings.Replace(testScenario, "min: 2", "min: 99", 1)
	path := writeScenario(t, "impossible.yaml", impossible)
	var sb strings.Builder
	err := run(&sb, []string{"run", path})
	if err == nil || !strings.Contains(err.Error(), "assertions failed in 1 of 1 scenarios") {
		t.Fatalf("err = %v, want assertion failure", err)
	}
	// The report is still printed, with ok: false, so the failure is
	// inspectable from stdout alone.
	if !strings.Contains(sb.String(), `"ok": false`) {
		t.Errorf("failing report not printed:\n%s", sb.String())
	}
}

func TestValidateSubcommandAcceptsDirectory(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.yaml", "b.yaml"} {
		content := strings.Replace(testScenario, "cli-smoke", strings.TrimSuffix(name, ".yaml"), 1)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := run(&sb, []string{"validate", dir}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 ||
		!strings.Contains(lines[0], "ok ") || !strings.Contains(lines[0], "a.yaml (a: 1 events, 1 assertions)") ||
		!strings.Contains(lines[1], "b.yaml (b: 1 events, 1 assertions)") {
		t.Errorf("validate output:\n%s", sb.String())
	}
}

// TestValidateSubcommandPositionedErrors pins the property the subcommand
// exists for: a malformed file is rejected with file:line:col pointing at
// the offending token.
func TestValidateSubcommandPositionedErrors(t *testing.T) {
	path := writeScenario(t, "bad.yaml", "name: broken\nseed: soon\n")
	var sb strings.Builder
	err := run(&sb, []string{"validate", path})
	if err == nil {
		t.Fatal("malformed scenario accepted")
	}
	if want := path + ":2:7: seed must be an integer"; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want position %q", err, want)
	}
}

// TestValidateSubcommandRejectsJSON pins that YAML is the only scenario
// syntax: a JSON document is malformed input with a position, whatever
// its file extension.
func TestValidateSubcommandRejectsJSON(t *testing.T) {
	path := writeScenario(t, "x.json", "{\n  \"name\": \"x\",\n  \"seed\": 1\n}\n")
	var sb strings.Builder
	err := run(&sb, []string{"validate", path})
	if err == nil {
		t.Fatal("JSON scenario accepted")
	}
	if want := path + ":1:1: "; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want position %q", err, want)
	}
}

func TestScenarioSubcommandArgErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, []string{"run"}); err == nil {
		t.Error("run with no paths accepted")
	}
	if err := run(&sb, []string{"validate", t.TempDir()}); err == nil {
		t.Error("empty directory accepted")
	}
	if err := run(&sb, []string{"run", filepath.Join(t.TempDir(), "missing.yaml")}); err == nil {
		t.Error("missing file accepted")
	}
}

// TestScenarioSubcommandsRejectEmptyDirectories pins the exit-non-zero
// contract for both subcommands when a directory expands to zero scenario
// files — a CI gate pointed at an empty or misnamed zoo directory must fail
// loudly, not report success having simulated nothing.
func TestScenarioSubcommandsRejectEmptyDirectories(t *testing.T) {
	for _, sub := range []string{"run", "validate"} {
		t.Run(sub, func(t *testing.T) {
			dir := t.TempDir()
			// Entries a scenario walk must ignore: a subdirectory and
			// non-scenario extensions, JSON included.
			if err := os.Mkdir(filepath.Join(dir, "nested"), 0o755); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"notes.txt", "legacy.json"} {
				if err := os.WriteFile(filepath.Join(dir, name), []byte("not a scenario"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var sb strings.Builder
			err := run(&sb, []string{sub, dir})
			if err == nil {
				t.Fatalf("%s on a scenario-free directory succeeded", sub)
			}
			if !strings.Contains(err.Error(), "no scenarios found") {
				t.Errorf("err = %v, want a 'no scenarios found' message", err)
			}
		})
	}
}

package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"probqos"
)

// The scenario subcommands:
//
//	qossim run <scenario.yaml|dir>...       execute scenarios, print reports
//	qossim validate <scenario.yaml|dir>...  check files, report positioned errors
//
// Directories expand to their *.yaml and *.yml entries in name order (the
// zoo layout). run exits non-zero when any scenario's
// assertions fail; validate exits non-zero when any file is malformed,
// with file:line:col on every complaint.

// scenarioFiles expands the path arguments into a flat scenario file list.
func scenarioFiles(paths []string) ([]string, error) {
	if len(paths) == 0 {
		return nil, errors.New("no scenario files or directories given")
	}
	var files []string
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, p)
			continue
		}
		entries, err := os.ReadDir(p) // sorted by name
		if err != nil {
			return nil, err
		}
		before := len(files)
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			switch filepath.Ext(e.Name()) {
			case ".yaml", ".yml":
				files = append(files, filepath.Join(p, e.Name()))
			}
		}
		if len(files) == before {
			return nil, fmt.Errorf("no scenarios found: directory %s holds no scenario files", p)
		}
	}
	// Defense in depth: run/validate on an empty list would "succeed"
	// without simulating anything, which reads as a green CI gate.
	if len(files) == 0 {
		return nil, fmt.Errorf("no scenarios found in %s", strings.Join(paths, ", "))
	}
	return files, nil
}

// runScenarios executes each scenario and prints its report as JSON.
func runScenarios(out io.Writer, args []string) error {
	files, err := scenarioFiles(args)
	if err != nil {
		return err
	}
	var failed []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		rep, err := probqos.RunScenario(f, data)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(out); err != nil {
			return err
		}
		if !rep.OK {
			failed = append(failed, rep.Scenario)
			for _, a := range rep.Failed() {
				fmt.Fprintf(os.Stderr, "qossim: %s: assertion %s failed: %s\n", rep.Scenario, a.Type, a.Detail)
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("assertions failed in %d of %d scenarios: %s",
			len(failed), len(files), strings.Join(failed, ", "))
	}
	return nil
}

// validateScenarios decodes each file, reporting every problem with its
// source position.
func validateScenarios(out io.Writer, args []string) error {
	files, err := scenarioFiles(args)
	if err != nil {
		return err
	}
	var errs []error
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		s, err := probqos.DecodeScenario(f, data)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		fmt.Fprintf(out, "ok %s (%s: %d events, %d assertions)\n", f, s.Name, len(s.Events), len(s.Asserts))
	}
	return errors.Join(errs...)
}

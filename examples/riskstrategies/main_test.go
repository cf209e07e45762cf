package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden")

// TestStdoutGolden pins the example's output byte for byte: every input is
// seeded, so any change in the printed numbers is a behaviour change.
func TestStdoutGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "stdout.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("stdout differs from %s (rerun with -update if intended)\ngot:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}

package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeScenario hammers the YAML-subset parser through the binder.
// The decoder must never panic, and every scenario it does accept must
// satisfy Validate: the runner builds engines and failure traces straight
// from these fields, so an accepted-but-invalid document would turn a
// config mistake into a runtime fault.
func FuzzDecodeScenario(f *testing.F) {
	// Every zoo scenario: real documents with comments, flow lists and
	// every event kind.
	zoo, err := filepath.Glob(filepath.Join("zoo", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range zoo {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	// A full-surface document and a minimal valid one.
	f.Add([]byte(yamlDoc))
	f.Add([]byte("name: n\nseed: 1\nfleet:\n  nodes: 4\n"))

	// Structural edge cases the hand-written parser must reject cleanly.
	f.Add([]byte("\tname: tabbed\n"))
	f.Add([]byte("name: a\nname: b\n"))
	f.Add([]byte("seed: {inline: map}\n"))
	f.Add([]byte("events:\n  - at_s: 0\n    action: explode\n"))
	f.Add([]byte("fleet:\n  nodes: [1, 2\n"))
	f.Add([]byte("name: \"unterminated\n"))
	f.Add([]byte("deep:\n  deep:\n    deep:\n      deep: 1\n"))
	f.Add([]byte("- just\n- a\n- list\n"))
	f.Add([]byte("key:\n"))
	f.Add([]byte("#only a comment\n"))
	f.Add([]byte(`{"name": "n", "seed": 1, "fleet": {"nodes": 4}}`))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode("fuzz.yaml", data)
		if err != nil {
			if s != nil {
				t.Fatalf("Decode(%q) returned both a scenario and error %v", data, err)
			}
			return
		}
		if s == nil {
			t.Fatalf("Decode(%q) returned neither scenario nor error", data)
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("Decode(%q) accepted a scenario that fails Validate: %v", data, verr)
		}
	})
}

// Package facts is a per-object fact store for cross-package analysis,
// mirroring the shape of go/analysis facts with nothing beyond go/types.
// An analyzer computing a property of a function in one package (say,
// "this function's result derives from the wall clock") records it against
// the types.Object; when another package's analysis reaches a call to that
// function, it looks the fact up instead of re-deriving it. Facts are
// namespaced by analyzer so two analyzers can attach independent facts to
// the same object.
package facts

import (
	"fmt"
	"go/types"
)

// A Store holds facts keyed by (object, namespace). It is not safe for
// concurrent use: the lint driver is single-threaded by design, because
// finding order must be deterministic.
type Store struct {
	m map[types.Object]map[string]any
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{m: make(map[types.Object]map[string]any)}
}

// Set records fact under (obj, ns), replacing any previous value. A nil
// object is rejected: facts must be attachable to a resolvable identity.
func (s *Store) Set(obj types.Object, ns string, fact any) error {
	if obj == nil {
		return fmt.Errorf("facts: nil object for namespace %q", ns)
	}
	byNS := s.m[obj]
	if byNS == nil {
		byNS = make(map[string]any)
		s.m[obj] = byNS
	}
	byNS[ns] = fact
	return nil
}

// Get returns the fact recorded under (obj, ns), if any.
func (s *Store) Get(obj types.Object, ns string) (any, bool) {
	f, ok := s.m[obj][ns]
	return f, ok
}

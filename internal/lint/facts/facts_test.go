package facts

import (
	"go/token"
	"go/types"
	"testing"
)

func newFunc(pkg *types.Package, name string) *types.Func {
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	return types.NewFunc(token.NoPos, pkg, name, sig)
}

func TestSetGetRoundtrip(t *testing.T) {
	s := NewStore()
	pkg := types.NewPackage("example/p", "p")
	f := newFunc(pkg, "F")
	if err := s.Set(f, "taint", "wall-clock"); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(f, "taint")
	if !ok || got != "wall-clock" {
		t.Fatalf("Get = %v, %v; want wall-clock, true", got, ok)
	}
	if _, ok := s.Get(f, "other"); ok {
		t.Error("fact leaked across namespaces")
	}
	if _, ok := s.Get(newFunc(pkg, "G"), "taint"); ok {
		t.Error("fact leaked across objects")
	}
}

func TestSetReplaces(t *testing.T) {
	s := NewStore()
	pkg := types.NewPackage("example/p", "p")
	f := newFunc(pkg, "F")
	s.Set(f, "n", 1)
	s.Set(f, "n", 2)
	got, _ := s.Get(f, "n")
	if got != 2 {
		t.Fatalf("Get = %v, want 2", got)
	}
	if len(s.m) != 1 {
		t.Fatalf("store holds %d objects, want 1", len(s.m))
	}
}

func TestNilObjectRejected(t *testing.T) {
	s := NewStore()
	if err := s.Set(nil, "n", 1); err == nil {
		t.Fatal("nil object accepted")
	}
}

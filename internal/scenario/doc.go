package scenario

import "fmt"

// The YAML-subset parser builds this generic, position-carrying document
// tree; the binder then turns the tree into a Scenario. Keeping positions
// on every node is what lets `qossim validate` point at the exact
// file:line:col of a bad field.

// Pos is a source position in a scenario file.
type Pos struct {
	Name string // file name as given to Decode
	Line int    // 1-based
	Col  int    // 1-based, in bytes
}

func (p Pos) String() string { return fmt.Sprintf("%s:%d:%d", p.Name, p.Line, p.Col) }

type nodeKind int

const (
	scalarNode nodeKind = iota + 1
	mapNode
	listNode
)

func (k nodeKind) String() string {
	switch k {
	case scalarNode:
		return "scalar"
	case mapNode:
		return "mapping"
	case listNode:
		return "list"
	}
	return "unknown"
}

// node is one value in a parsed scenario document.
type node struct {
	pos  Pos
	kind nodeKind

	// Scalar payload, unquoted.
	scalar string

	// Map payload, with keys in source order for deterministic iteration.
	keys     []string
	children map[string]*node

	// List payload.
	items []*node
}

func newMapNode(pos Pos) *node {
	return &node{pos: pos, kind: mapNode, children: make(map[string]*node)}
}

// put adds a map entry, reporting duplicate keys.
func (n *node) put(key string, child *node) error {
	if _, dup := n.children[key]; dup {
		return fmt.Errorf("%s: duplicate key %q", child.pos, key)
	}
	n.keys = append(n.keys, key)
	n.children[key] = child
	return nil
}

// maxDepth bounds document nesting in the parser, so hostile inputs (the
// fuzz target feeds plenty) cannot drive the recursive descent arbitrarily
// deep. Real scenarios nest four levels.
const maxDepth = 64

// Package cfg builds a lightweight intraprocedural control-flow graph over
// a function body, using nothing beyond go/ast and go/token. It exists for
// qoslint's flow-aware lockheld analyzer: a question like "is this mutex
// held on any path between Lock and Unlock when we hit a channel send?" is
// a path question, and a per-file AST walk cannot answer it.
//
// The graph is statement-granular and its nodes are atomic: a compound
// statement (if, for, switch, select) never appears as a node itself —
// only its control parts do (the condition, the range operand, the switch
// tag, the comm statements), with the branch bodies in successor blocks.
// An analysis may therefore inspect each node's full subtree without ever
// seeing a statement that belongs to another block.
//
// Deliberate simplifications, all conservative for may-analyses:
//
//   - Panics and calls that never return are not modeled; every statement
//     is assumed to fall through to the next.
//   - A goto jumps to its label when the label is in scope; an unresolved
//     goto (forward into a block the builder already closed is fine, but a
//     label that never appears is not) edges to the exit block.
//   - fallthrough edges to the next case body, as in the language.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// A Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks holds every basic block in creation order; Blocks[0] is the
	// entry. Unreachable blocks (after a return, say) are retained: a
	// may-analysis simply never reaches them.
	Blocks []*Block
	// Entry is the block control enters at the top of the body.
	Entry *Block
	// Exit is the single synthetic exit block. Return statements and the
	// fall-off end of the body edge here. It holds no nodes.
	Exit *Block
}

// A Block is a straight-line run of atomic nodes with no internal control
// transfer.
type Block struct {
	// Index is the block's position in Graph.Blocks.
	Index int
	// Nodes are the atomic AST nodes executed in order: plain statements,
	// plus the control parts of compound statements (an if condition, a
	// range operand, a switch tag, a select comm statement).
	Nodes []ast.Node
	// Succs are the blocks control may transfer to after the last node.
	Succs []*Block
}

// addSucc links b -> s once.
func (b *Block) addSucc(s *Block) {
	for _, t := range b.Succs {
		if t == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
}

// New builds the graph for one function body. A nil body (a declaration
// without a definition) yields a graph whose entry edges straight to exit.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	// Falling off the end of the body reaches the exit.
	b.cur.addSucc(g.Exit)
	b.resolveGotos()
	return g
}

// String renders the graph compactly for tests and debugging:
//
//	b0[expr,assign] -> b1 b2
func (g *Graph) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "b%d[", blk.Index)
		for i, n := range blk.Nodes {
			if i > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(nodeKind(n))
		}
		sb.WriteString("]")
		if len(blk.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// nodeKind names a node for String output.
func nodeKind(n ast.Node) string {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return "assign"
	case *ast.ExprStmt:
		return "expr"
	case *ast.ReturnStmt:
		return "return"
	case *ast.SendStmt:
		return "send"
	case *ast.DeferStmt:
		return "defer"
	case *ast.GoStmt:
		return "go"
	case *ast.DeclStmt:
		return "decl"
	case *ast.IncDecStmt:
		return "incdec"
	case *ast.BranchStmt:
		return strings.ToLower(n.Tok.String())
	case ast.Expr:
		return "cond"
	default:
		return strings.TrimPrefix(strings.ToLower(fmt.Sprintf("%T", n)), "*ast.")
	}
}

type builder struct {
	g   *Graph
	cur *Block

	// loop/switch context for break and continue, innermost last. Each
	// entry carries its label ("" when unlabeled).
	breaks    []target
	continues []target

	// labels maps a label name to the block its labeled statement starts
	// in; gotos resolves forward references after the walk.
	labels map[string]*Block
	gotos  []pendingGoto
}

type target struct {
	label string
	block *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// startBlock begins a new block that the current one falls through to.
func (b *builder) startBlock() *Block {
	blk := b.newBlock()
	b.cur.addSucc(blk)
	b.cur = blk
	return blk
}

func (b *builder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt lowers one statement. label is the pending label when the statement
// was wrapped in a LabeledStmt, so loops register labeled break/continue
// targets.
func (b *builder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label names the first block of the labeled statement. Start a
		// fresh block so a goto can land exactly there.
		blk := b.startBlock()
		if b.labels == nil {
			b.labels = make(map[string]*Block)
		}
		b.labels[s.Label.Name] = blk
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Cond)
		condBlk := b.cur
		thenBlk := b.newBlock()
		condBlk.addSucc(thenBlk)
		join := b.newBlock()
		b.cur = thenBlk
		b.stmtList(s.Body.List)
		b.cur.addSucc(join)
		if s.Else != nil {
			elseBlk := b.newBlock()
			condBlk.addSucc(elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else, "")
			b.cur.addSucc(join)
		} else {
			condBlk.addSucc(join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		head := b.startBlock()
		if s.Cond != nil {
			b.add(s.Cond)
		}
		body := b.newBlock()
		head.addSucc(body)
		after := b.newBlock()
		if s.Cond != nil {
			head.addSucc(after) // condition false
		}
		post := b.newBlock()
		b.pushLoop(label, after, post)
		b.cur = body
		b.stmtList(s.Body.List)
		b.cur.addSucc(post)
		if s.Post != nil {
			b.cur = post
			b.stmt(s.Post, "")
			b.cur.addSucc(head)
		} else {
			post.addSucc(head)
		}
		b.popLoop()
		b.cur = after

	case *ast.RangeStmt:
		head := b.startBlock()
		b.add(s.X)
		body := b.newBlock()
		after := b.newBlock()
		head.addSucc(body)
		head.addSucc(after) // range may be empty
		b.pushLoop(label, after, head)
		b.cur = body
		b.stmtList(s.Body.List)
		b.cur.addSucc(head)
		b.popLoop()
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(label, s.Body, func(c *ast.CaseClause) []ast.Node {
			nodes := make([]ast.Node, len(c.List))
			for i, e := range c.List {
				nodes[i] = e
			}
			return nodes
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Assign)
		b.switchBody(label, s.Body, func(*ast.CaseClause) []ast.Node { return nil })

	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock()
		b.breaks = append(b.breaks, target{label, after})
		hasDefault := false
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			blk := b.newBlock()
			head.addSucc(blk)
			b.cur = blk
			if comm.Comm != nil {
				b.stmt(comm.Comm, "")
			} else {
				hasDefault = true
			}
			b.stmtList(comm.Body)
			b.cur.addSucc(after)
		}
		_ = hasDefault // a select with no default still must pick a clause
		if len(s.Body.List) == 0 {
			// select {} blocks forever; model as edging to exit.
			head.addSucc(b.g.Exit)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.cur.addSucc(b.g.Exit)
		b.cur = b.newBlock() // unreachable continuation

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(b.breaks, s.Label); t != nil {
				b.cur.addSucc(t)
			} else {
				b.cur.addSucc(b.g.Exit)
			}
			b.cur = b.newBlock()
		case token.CONTINUE:
			if t := b.findTarget(b.continues, s.Label); t != nil {
				b.cur.addSucc(t)
			} else {
				b.cur.addSucc(b.g.Exit)
			}
			b.cur = b.newBlock()
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			b.cur = b.newBlock()
		case token.FALLTHROUGH:
			// switchBody wires the edge; nothing to do here.
		}

	default:
		// Plain statements: expr, assign, decl, incdec, send, defer, go,
		// empty. Atomic by construction.
		if _, ok := s.(*ast.EmptyStmt); ok {
			return
		}
		b.add(s)
	}
}

// switchBody lowers the case clauses of a value or type switch. caseNodes
// extracts the per-clause guard nodes added to the clause's block (the case
// expressions for a value switch, nothing for a type switch).
func (b *builder) switchBody(label string, body *ast.BlockStmt, caseNodes func(*ast.CaseClause) []ast.Node) {
	head := b.cur
	after := b.newBlock()
	b.breaks = append(b.breaks, target{label, after})
	var caseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, cl := range body.List {
		c := cl.(*ast.CaseClause)
		blk := b.newBlock()
		head.addSucc(blk)
		caseBlocks = append(caseBlocks, blk)
		clauses = append(clauses, c)
		if c.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		head.addSucc(after) // no case matched
	}
	for i, c := range clauses {
		b.cur = caseBlocks[i]
		for _, n := range caseNodes(c) {
			b.add(n)
		}
		b.stmtList(c.Body)
		if endsInFallthrough(c.Body) && i+1 < len(caseBlocks) {
			b.cur.addSucc(caseBlocks[i+1])
		} else {
			b.cur.addSucc(after)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *builder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, target{label, brk})
	b.continues = append(b.continues, target{label, cont})
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// findTarget resolves a break/continue to the innermost matching target:
// unlabeled picks the innermost, labeled picks the matching label.
func (b *builder) findTarget(ts []target, label *ast.Ident) *Block {
	if label == nil {
		if len(ts) == 0 {
			return nil
		}
		return ts[len(ts)-1].block
	}
	for i := len(ts) - 1; i >= 0; i-- {
		if ts[i].label == label.Name {
			return ts[i].block
		}
	}
	return nil
}

func (b *builder) resolveGotos() {
	for _, g := range b.gotos {
		if blk, ok := b.labels[g.label]; ok {
			g.from.addSucc(blk)
		} else {
			// A label the builder never saw; be conservative.
			g.from.addSucc(b.g.Exit)
		}
	}
}

package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// A minimal YAML-subset parser: enough for scenario files to read like the
// fleet-simulator YAML they are modeled on, without importing a YAML
// library (the module is stdlib-only). The subset is:
//
//   - block mappings (`key: value`, or `key:` opening an indented block)
//   - block lists (`- item`, where an item may open an inline mapping
//     whose further keys sit on following lines, aligned after the dash)
//   - flow lists of scalars (`[1, 2, 3]`)
//   - scalars: bare text, double-quoted strings, numbers, booleans
//   - `#` comments (whole-line and trailing) and blank lines
//
// Indentation is spaces only; tabs are an error. Anything outside the
// subset is a positioned parse error, never a guess.

// yline is one content-bearing line of the file.
type yline struct {
	indent int    // leading spaces
	text   string // content with indentation and trailing comment stripped
	line   int    // 1-based source line
}

type yamlParser struct {
	name  string
	lines []yline
	i     int
}

func parseYAML(name string, data []byte) (*node, error) {
	p := &yamlParser{name: name}
	for lineNo, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSuffix(raw, "\r")
		indent := 0
		for indent < len(line) && line[indent] == ' ' {
			indent++
		}
		rest := line[indent:]
		if rest == "" || rest[0] == '#' {
			continue
		}
		if rest[0] == '\t' {
			return nil, fmt.Errorf("%s: tab in indentation; use spaces", Pos{name, lineNo + 1, indent + 1})
		}
		rest = stripTrailingComment(rest)
		rest = strings.TrimRight(rest, " \t")
		if rest == "" {
			continue
		}
		p.lines = append(p.lines, yline{indent: indent, text: rest, line: lineNo + 1})
	}
	if len(p.lines) == 0 {
		return nil, fmt.Errorf("%s: empty scenario document", Pos{name, 1, 1})
	}
	if p.lines[0].indent != 0 {
		return nil, p.errf(p.lines[0], 1, "top-level content must start at column 1")
	}
	root, err := p.parseBlock(0, 0)
	if err != nil {
		return nil, err
	}
	if p.i < len(p.lines) {
		return nil, p.errf(p.lines[p.i], 1, "unexpected content after the top-level block")
	}
	if root.kind != mapNode {
		return nil, fmt.Errorf("%s: scenario document must be a mapping", root.pos)
	}
	return root, nil
}

// stripTrailingComment removes a trailing ` # ...` comment outside double
// quotes. A '#' not preceded by whitespace binds to the scalar (anchors in
// names stay intact).
func stripTrailingComment(s string) string {
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case '#':
			if !inQuote && i > 0 && (s[i-1] == ' ' || s[i-1] == '\t') {
				return s[:i]
			}
		}
	}
	return s
}

func (p *yamlParser) pos(l yline, col int) Pos { return Pos{p.name, l.line, col} }

func (p *yamlParser) errf(l yline, col int, format string, args ...any) error {
	return fmt.Errorf("%s: %s", p.pos(l, col), fmt.Sprintf(format, args...))
}

// parseBlock parses the mapping or list beginning at the current line.
func (p *yamlParser) parseBlock(indent, depth int) (*node, error) {
	if depth > maxDepth {
		return nil, p.errf(p.lines[p.i], 1, "document nests deeper than %d levels", maxDepth)
	}
	if strings.HasPrefix(p.lines[p.i].text, "-") {
		return p.parseList(indent, depth)
	}
	return p.parseMap(indent, depth)
}

func (p *yamlParser) parseMap(indent, depth int) (*node, error) {
	first := p.lines[p.i]
	n := newMapNode(p.pos(first, first.indent+1))
	for p.i < len(p.lines) {
		l := p.lines[p.i]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, p.errf(l, l.indent+1, "unexpected indentation (mapping continues at column %d)", indent+1)
		}
		if strings.HasPrefix(l.text, "-") {
			break // a list item at this indent belongs to an enclosing context
		}
		key, rest, restCol, err := p.splitKey(l)
		if err != nil {
			return nil, err
		}
		p.i++
		var child *node
		if rest != "" {
			child, err = p.parseScalarText(l, restCol, rest)
			if err != nil {
				return nil, err
			}
		} else {
			if p.i >= len(p.lines) || p.lines[p.i].indent <= indent {
				return nil, p.errf(l, l.indent+1, "key %q has no value", key)
			}
			child, err = p.parseBlock(p.lines[p.i].indent, depth+1)
			if err != nil {
				return nil, err
			}
		}
		child.pos = p.pos(l, l.indent+1)
		if rest != "" {
			child.pos = p.pos(l, restCol)
		}
		if err := n.put(key, child); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// splitKey splits a `key: value` line into key and value text, returning
// the 1-based column where the value begins.
func (p *yamlParser) splitKey(l yline) (key, rest string, restCol int, err error) {
	idx := strings.Index(l.text, ":")
	if idx <= 0 {
		return "", "", 0, p.errf(l, l.indent+1, "expected `key: value`")
	}
	key = l.text[:idx]
	for _, r := range key {
		if !(r == '_' || r == '-' || r == '.' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
			return "", "", 0, p.errf(l, l.indent+1, "invalid key %q (letters, digits, '_', '-', '.')", key)
		}
	}
	after := l.text[idx+1:]
	if after != "" && after[0] != ' ' {
		return "", "", 0, p.errf(l, l.indent+idx+2, "missing space after %q", key+":")
	}
	trimmed := strings.TrimLeft(after, " ")
	// Value column: indent + key + ":" put the colon at indent+idx+1; the
	// value starts one past it plus any padding spaces.
	return key, trimmed, l.indent + idx + 2 + (len(after) - len(trimmed)), nil
}

func (p *yamlParser) parseList(indent, depth int) (*node, error) {
	first := p.lines[p.i]
	n := &node{pos: p.pos(first, first.indent+1), kind: listNode}
	for p.i < len(p.lines) {
		l := p.lines[p.i]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, p.errf(l, l.indent+1, "unexpected indentation (list continues at column %d)", indent+1)
		}
		if !strings.HasPrefix(l.text, "-") {
			break
		}
		rest := l.text[1:]
		if rest == "" {
			return nil, p.errf(l, l.indent+1, "empty list item")
		}
		if rest[0] != ' ' {
			return nil, p.errf(l, l.indent+2, "missing space after '-'")
		}
		rest = strings.TrimLeft(rest, " ")
		pad := len(l.text) - len(rest)
		itemCol := l.indent + pad + 1
		if looksLikeKey(rest) {
			// `- key: value` opens a mapping aligned at the item column;
			// rewrite the dash away and let parseMap consume this line plus
			// any continuation lines at the same alignment.
			p.lines[p.i] = yline{indent: l.indent + pad, text: rest, line: l.line}
			item, err := p.parseMap(l.indent+pad, depth+1)
			if err != nil {
				return nil, err
			}
			n.items = append(n.items, item)
			continue
		}
		item, err := p.parseScalarText(l, itemCol, rest)
		if err != nil {
			return nil, err
		}
		n.items = append(n.items, item)
		p.i++
	}
	return n, nil
}

// looksLikeKey reports whether a list item's text begins a `key:` mapping
// entry rather than a scalar.
func looksLikeKey(s string) bool {
	idx := strings.Index(s, ":")
	if idx <= 0 {
		return false
	}
	if idx+1 < len(s) && s[idx+1] != ' ' {
		return false
	}
	for _, r := range s[:idx] {
		if !(r == '_' || r == '-' || r == '.' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
			return false
		}
	}
	return true
}

// parseScalarText parses an inline value: a flow list, a quoted string, or
// a bare scalar.
func (p *yamlParser) parseScalarText(l yline, col int, text string) (*node, error) {
	pos := p.pos(l, col)
	if strings.HasPrefix(text, "[") {
		return p.parseFlowList(l, col, text)
	}
	if strings.HasPrefix(text, "\"") {
		s, err := strconv.Unquote(text)
		if err != nil {
			return nil, fmt.Errorf("%s: bad quoted string %s", pos, text)
		}
		return &node{pos: pos, kind: scalarNode, scalar: s}, nil
	}
	if strings.ContainsAny(text, "{}[]") {
		return nil, fmt.Errorf("%s: flow mappings are outside the supported YAML subset", pos)
	}
	return &node{pos: pos, kind: scalarNode, scalar: text}, nil
}

// parseFlowList parses `[a, b, c]` where every element is a scalar.
func (p *yamlParser) parseFlowList(l yline, col int, text string) (*node, error) {
	pos := p.pos(l, col)
	if !strings.HasSuffix(text, "]") {
		return nil, fmt.Errorf("%s: flow list is missing its closing ']'", pos)
	}
	inner := text[1 : len(text)-1]
	n := &node{pos: pos, kind: listNode}
	if strings.TrimSpace(inner) == "" {
		return n, nil
	}
	start := 0
	inQuote := false
	for i := 0; i <= len(inner); i++ {
		if i < len(inner) {
			switch inner[i] {
			case '\\':
				if inQuote {
					i++
				}
				continue
			case '"':
				inQuote = !inQuote
				continue
			case ',':
				if inQuote {
					continue
				}
			default:
				continue
			}
		} else if inQuote {
			return nil, fmt.Errorf("%s: unterminated string in flow list", pos)
		}
		elem := strings.TrimSpace(inner[start:i])
		elemCol := col + 1 + start
		if elem == "" {
			return nil, fmt.Errorf("%s: empty element in flow list", Pos{p.name, l.line, elemCol})
		}
		if strings.ContainsAny(elem, "[]{}") {
			return nil, fmt.Errorf("%s: nested flow values are outside the supported YAML subset", Pos{p.name, l.line, elemCol})
		}
		item, err := p.parseScalarText(l, elemCol, elem)
		if err != nil {
			return nil, err
		}
		n.items = append(n.items, item)
		start = i + 1
	}
	return n, nil
}

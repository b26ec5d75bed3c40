package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is a deliberately small YAML-subset decoder, just large enough
// for scenario-v1 spec documents: block mappings nested by indentation,
// block sequences ("- item"), flow sequences ("[lo, hi]"), quoted and plain
// scalars, and "#" comments. It exists because the repository takes no
// external dependencies; specs that need none of YAML's conveniences can
// simply be written as JSON (DecodeSpec sniffs the syntax).
//
// Unsupported on purpose: anchors/aliases, tags, multi-document streams,
// flow mappings, multiline scalars. The decoder rejects them with a line
// number rather than guessing.
//
// Non-finite numbers (.nan, .inf) are rejected at parse time, with the
// offending key named: a scenario spec is a physical description, and NaN
// durations or infinite loss rates must fail loudly (see FuzzDecodeSpec).

// yamlError is a parse error carrying the 1-based source line.
type yamlError struct {
	line int
	msg  string
}

func (e *yamlError) Error() string { return fmt.Sprintf("yaml: line %d: %s", e.line, e.msg) }

func yamlErrf(line int, format string, args ...any) error {
	return &yamlError{line: line, msg: fmt.Sprintf(format, args...)}
}

// yamlLine is one significant (non-blank, non-comment) source line.
type yamlLine struct {
	num    int    // 1-based source line number
	indent int    // leading spaces
	text   string // content with indentation and trailing comment removed
}

// yamlToValue parses a YAML-subset document into the same shape
// encoding/json produces: map[string]any, []any, string, float64, bool,
// nil. Integers are returned as int64 so large seeds survive exactly.
func yamlToValue(data []byte) (any, error) {
	lines, err := yamlSplit(string(data))
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, yamlErrf(1, "empty document")
	}
	v, rest, err := parseBlock(lines, lines[0].indent)
	if err != nil {
		return nil, err
	}
	if len(rest) > 0 {
		return nil, yamlErrf(rest[0].num, "content outdented past the document root")
	}
	return v, nil
}

// yamlSplit prepares the significant lines: strips comments (respecting
// quotes), drops blanks and a "---" document marker before the first
// content line, and rejects tabs in indentation (as YAML itself does) and
// a "---" after content, which would start a second document.
func yamlSplit(doc string) ([]yamlLine, error) {
	var out []yamlLine
	for i, raw := range strings.Split(doc, "\n") {
		num := i + 1
		line := strings.TrimRight(raw, " \r")
		indent := 0
		for indent < len(line) && line[indent] == ' ' {
			indent++
		}
		if indent < len(line) && line[indent] == '\t' {
			return nil, yamlErrf(num, "tab in indentation")
		}
		text := stripComment(line[indent:])
		text = strings.TrimRight(text, " ")
		if text == "---" && len(out) > 0 {
			return nil, yamlErrf(num, "a second document (\"---\"): one document per file")
		}
		if text == "" || text == "---" {
			continue
		}
		out = append(out, yamlLine{num: num, indent: indent, text: text})
	}
	return out, nil
}

// stripComment removes a trailing "# ..." comment. A '#' only starts a
// comment at the beginning of the content or after a space, and never
// inside a quoted span.
func stripComment(s string) string {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '#' && (i == 0 || s[i-1] == ' '):
			return s[:i]
		}
	}
	return s
}

// parseBlock parses the run of lines at exactly indent, which must all be
// the same kind (mapping entries or sequence items). It returns the value
// and the lines that belong to enclosing blocks.
func parseBlock(lines []yamlLine, indent int) (any, []yamlLine, error) {
	if len(lines) == 0 {
		return nil, lines, nil
	}
	if strings.HasPrefix(lines[0].text, "- ") || lines[0].text == "-" {
		return parseSequence(lines, indent)
	}
	return parseMapping(lines, indent)
}

func parseMapping(lines []yamlLine, indent int) (any, []yamlLine, error) {
	m := map[string]any{}
	for len(lines) > 0 {
		ln := lines[0]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, nil, yamlErrf(ln.num, "unexpected indentation")
		}
		if strings.HasPrefix(ln.text, "- ") || ln.text == "-" {
			return nil, nil, yamlErrf(ln.num, "sequence item in a mapping block")
		}
		key, rest, err := splitKey(ln)
		if err != nil {
			return nil, nil, err
		}
		if _, dup := m[key]; dup {
			return nil, nil, yamlErrf(ln.num, "duplicate key %q", key)
		}
		lines = lines[1:]
		if rest == "" {
			// Value is the nested block, or null when nothing is nested.
			if len(lines) > 0 && lines[0].indent > indent {
				v, tail, err := parseBlock(lines, lines[0].indent)
				if err != nil {
					return nil, nil, err
				}
				m[key] = v
				lines = tail
			} else {
				m[key] = nil
			}
			continue
		}
		v, err := parseScalar(rest, ln.num, key)
		if err != nil {
			return nil, nil, err
		}
		m[key] = v
	}
	return m, lines, nil
}

func parseSequence(lines []yamlLine, indent int) (any, []yamlLine, error) {
	seq := []any{}
	for len(lines) > 0 {
		ln := lines[0]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, nil, yamlErrf(ln.num, "unexpected indentation")
		}
		if !strings.HasPrefix(ln.text, "- ") && ln.text != "-" {
			return nil, nil, yamlErrf(ln.num, "mapping entry in a sequence block")
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(ln.text, "-"), " ")
		if rest == "" {
			// Item is the nested block on the following lines.
			lines = lines[1:]
			if len(lines) > 0 && lines[0].indent > indent {
				v, tail, err := parseBlock(lines, lines[0].indent)
				if err != nil {
					return nil, nil, err
				}
				seq = append(seq, v)
				lines = tail
			} else {
				seq = append(seq, nil)
			}
			continue
		}
		if strings.Contains(rest, ": ") || strings.HasSuffix(rest, ":") {
			// "- key: value" compact mapping item: re-parse the remainder
			// as a mapping whose first line starts after the dash.
			inner := []yamlLine{{num: ln.num, indent: ln.indent + 2, text: rest}}
			i := 1
			for ; i < len(lines); i++ {
				if lines[i].indent <= ln.indent {
					break
				}
				inner = append(inner, lines[i])
			}
			v, tail, err := parseMapping(inner, ln.indent+2)
			if err != nil {
				return nil, nil, err
			}
			if len(tail) > 0 {
				return nil, nil, yamlErrf(tail[0].num, "bad indentation in sequence item")
			}
			seq = append(seq, v)
			lines = lines[i:]
			continue
		}
		v, err := parseScalar(rest, ln.num, "")
		if err != nil {
			return nil, nil, err
		}
		seq = append(seq, v)
		lines = lines[1:]
	}
	return seq, lines, nil
}

// splitKey splits a "key: value" line, handling quoted keys. The returned
// rest is "" when the value is nested (or null).
func splitKey(ln yamlLine) (key, rest string, err error) {
	s := ln.text
	if s[0] == '\'' || s[0] == '"' {
		q := s[0]
		end := strings.IndexByte(s[1:], q)
		if end < 0 {
			return "", "", yamlErrf(ln.num, "unterminated quoted key")
		}
		key = s[1 : 1+end]
		s = s[2+end:]
		if !strings.HasPrefix(s, ":") {
			return "", "", yamlErrf(ln.num, "expected ':' after quoted key")
		}
		return key, strings.TrimLeft(s[1:], " "), nil
	}
	i := strings.Index(s, ": ")
	if i < 0 {
		if strings.HasSuffix(s, ":") {
			return strings.TrimSpace(s[:len(s)-1]), "", nil
		}
		return "", "", yamlErrf(ln.num, "expected a 'key: value' mapping entry")
	}
	return strings.TrimSpace(s[:i]), strings.TrimLeft(s[i+2:], " "), nil
}

// parseScalar parses a scalar or flow-sequence value. key (may be empty)
// contextualizes error messages — "field x: non-finite number" is the
// contract FuzzDecodeSpec checks.
func parseScalar(s string, line int, key string) (any, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return nil, nil
	case s[0] == '[':
		return parseFlowSeq(s, line, key)
	case s[0] == '{':
		return nil, yamlErrf(line, "flow mappings are not supported")
	case s[0] == '&' || s[0] == '*' || s[0] == '!':
		return nil, yamlErrf(line, "anchors, aliases and tags are not supported")
	case s[0] == '|' || s[0] == '>':
		return nil, yamlErrf(line, "multiline scalars are not supported")
	case s[0] == '\'' || s[0] == '"':
		q := s[0]
		if len(s) < 2 || s[len(s)-1] != q {
			return nil, yamlErrf(line, "unterminated quoted string")
		}
		body := s[1 : len(s)-1]
		if q == '\'' {
			return strings.ReplaceAll(body, "''", "'"), nil
		}
		unq, err := strconv.Unquote(`"` + body + `"`)
		if err != nil {
			return nil, yamlErrf(line, "bad escape in double-quoted string")
		}
		return unq, nil
	}
	switch strings.ToLower(s) {
	case "null", "~":
		return nil, nil
	case "true":
		return true, nil
	case "false":
		return false, nil
	case ".nan", "nan", ".inf", "inf", "+.inf", "-.inf", "-inf", "+inf":
		if key != "" {
			return nil, yamlErrf(line, "field %q: non-finite number", key)
		}
		return nil, yamlErrf(line, "non-finite number")
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, nil
	}
	return s, nil // plain string
}

// parseFlowSeq parses "[a, b, ...]" with nesting.
func parseFlowSeq(s string, line int, key string) (any, error) {
	if s[len(s)-1] != ']' {
		return nil, yamlErrf(line, "unterminated flow sequence")
	}
	body := s[1 : len(s)-1]
	seq := []any{}
	depth, start := 0, 0
	var quote byte
	flush := func(end int) error {
		item := strings.TrimSpace(body[start:end])
		if item == "" {
			return yamlErrf(line, "empty item in flow sequence")
		}
		v, err := parseScalar(item, line, key)
		if err != nil {
			return err
		}
		seq = append(seq, v)
		return nil
	}
	if strings.TrimSpace(body) == "" {
		return seq, nil
	}
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '[':
			depth++
		case c == ']':
			depth--
		case c == ',' && depth == 0:
			if err := flush(i); err != nil {
				return nil, err
			}
			start = i + 1
		}
	}
	if quote != 0 {
		return nil, yamlErrf(line, "unterminated quoted string in flow sequence")
	}
	if depth != 0 {
		return nil, yamlErrf(line, "unbalanced brackets in flow sequence")
	}
	if err := flush(len(body)); err != nil {
		return nil, err
	}
	return seq, nil
}

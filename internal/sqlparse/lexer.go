// Package sqlparse parses STRIP's SQL subset: CREATE TABLE / INDEX / RULE
// (the paper's Figure 2 grammar), SELECT with joins, grouping and `bind as`,
// and INSERT / UPDATE / DELETE. The parser produces the engine's
// programmatic forms (query.Select, query.*Stmt, core.Rule, DDL structs).
package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"github.com/stripdb/strip/internal/types"
)

// tokKind classifies tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokKind
	// param is a number or string literal's ordinal among the statement's
	// literals: the placeholder it becomes in a statement template and its
	// value's index in the run's parameters. It is -1 for every other
	// token and for LIMIT's row count, which shapes the plan and so stays
	// part of the template. (int32 beside kind: a token stays four words,
	// and a 15,000-row load is lexed into tokens.)
	param int32
	text  string // identifiers lowercased; strings unquoted
	pos   int
}

// lexer is the one scanner of statement text. It has two consumers: lex
// collects the tokens for the parser, and normalize folds them into a
// statement-cache key. Both see the same numbering of literals.
type lexer struct {
	src        string
	pos        int
	literals   int32 // literals numbered so far
	afterLimit bool  // the previous token was the keyword LIMIT
}

// lex tokenizes the whole input up front.
func lex(src string) ([]token, error) {
	l := lexer{src: src}
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// cachedVerb reports whether a statement starting with this keyword goes
// through the statement cache. Everything else is parsed as written: in
// DDL and rule definitions literals shape the object, and a multi-row
// INSERT would make a template per row count.
func cachedVerb(kw string) bool {
	return kw == "select" || kw == "update" || kw == "delete"
}

// normalize scans a SELECT, UPDATE or DELETE into its statement-cache key,
// appended to key: the tokens, one space apart, with each literal replaced
// by a placeholder that keeps only its kind ("?i", "?f", "?s"), so
// `price < 5` and `price < 5.5` stay two templates and a template's output
// column kinds are fixed. The literal values come back in placeholder
// order. ok is false for any other statement, and err is the scanner's
// error or a number no value can hold.
func normalize(src string, key []byte) (_ []byte, params []types.Value, ok bool, err error) {
	l := lexer{src: src}
	t, err := l.next()
	if err != nil || t.kind != tokIdent || !cachedVerb(t.text) {
		return nil, nil, false, err
	}
	params = make([]types.Value, 0, 4)
	for {
		if t.param < 0 {
			key = append(key, t.text...)
		} else {
			v, err := literal(t)
			if err != nil {
				return nil, nil, false, err
			}
			params = append(params, v)
			key = append(key, '?', placeholder[v.Kind()])
		}
		if t, err = l.next(); err != nil {
			return nil, nil, false, err
		}
		if t.kind == tokEOF {
			return key, params, true, nil
		}
		key = append(key, ' ')
	}
}

// placeholder is the key's letter for a literal of each kind.
var placeholder = [...]byte{types.KindInt: 'i', types.KindFloat: 'f', types.KindString: 's'}

// literal converts a number or string token to its value: a number with a
// decimal point is a float, any other an int.
func literal(t token) (types.Value, error) {
	switch {
	case t.kind == tokString:
		return types.Str(t.text), nil
	case strings.Contains(t.text, "."):
		f, err := strconv.ParseFloat(t.text, 64)
		return types.Float(f), err
	default:
		n, err := strconv.ParseInt(t.text, 10, 64)
		return types.Int(n), err
	}
}

// next scans one token and numbers it if it is a literal.
func (l *lexer) next() (token, error) {
	t, err := l.scan()
	t.param = -1
	if t.kind == tokString || t.kind == tokNumber && !l.afterLimit {
		t.param = l.literals
		l.literals++
	}
	l.afterLimit = t.kind == tokIdent && t.text == "limit"
	return t, err
}

func (l *lexer) scan() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// SQL line comment.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, pos: l.pos}, nil

scan:
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(rune(c)):
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		return token{kind: tokIdent, text: strings.ToLower(l.src[start:l.pos]), pos: start}, nil
	case c >= '0' && c <= '9' || (c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9'):
		seenDot := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == '.' {
				if seenDot {
					break
				}
				seenDot = true
				l.pos++
				continue
			}
			if ch < '0' || ch > '9' {
				break
			}
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
	case c == '\'':
		l.pos++
		escaped := false
		for l.pos < len(l.src) {
			if l.src[l.pos] != '\'' {
				l.pos++
				continue
			}
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				escaped = true // a doubled quote stands for one
				l.pos += 2
				continue
			}
			// The text is copied, not sliced: it may be stored in a row, and
			// a row must not keep the whole statement's text alive.
			text := strings.Clone(l.src[start+1 : l.pos])
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			l.pos++
			return token{kind: tokString, text: text, pos: start}, nil
		}
		return token{}, fmt.Errorf("sqlparse: unterminated string at %d", start)
	default:
		// Multi-char operators first.
		for _, op := range []string{"+=", "<>", "<=", ">=", "!="} {
			if strings.HasPrefix(l.src[l.pos:], op) {
				l.pos += len(op)
				return token{kind: tokSymbol, text: op, pos: start}, nil
			}
		}
		if strings.ContainsRune("(),.*=<>+-/;", rune(c)) {
			l.pos++
			return token{kind: tokSymbol, text: l.src[start:l.pos], pos: start}, nil
		}
		return token{}, fmt.Errorf("sqlparse: unexpected character %q at %d", c, start)
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

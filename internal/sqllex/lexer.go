// Package sqllex tokenizes SQL and extended-SQL-TS source text. Both the
// SQL parser and the cleansing-rule parser consume this stream, so the
// rule language inherits SQL's literals (including interval shorthand like
// "5 MINS") for free.
package sqllex

import (
	"fmt"
	"strings"
)

// TokenKind classifies a token.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokString
	TokOp    // operators and punctuation: = <> != < <= > >= + - * / ( ) , . ;
	TokParam // $name placeholders used in rule templates
)

// Token is one lexical element. Text preserves the original spelling for
// identifiers (lower-cased) and the unquoted body for strings.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int // byte offset in the input, for error messages
}

// Lexer is a single-pass tokenizer with one-token lookahead managed by the
// parsers via Peek/Next.
type Lexer struct {
	src  string
	pos  int
	peek *Token
}

// New returns a lexer over src.
func New(src string) *Lexer { return &Lexer{src: src} }

// Errorf formats an error with position context.
func (l *Lexer) Errorf(pos int, format string, args ...any) error {
	line, col := 1, 1
	for i := 0; i < pos && i < len(l.src); i++ {
		if l.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Errorf("%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

// Peek returns the next token without consuming it.
func (l *Lexer) Peek() (Token, error) {
	if l.peek == nil {
		t, err := l.scan()
		if err != nil {
			return Token{}, err
		}
		l.peek = &t
	}
	return *l.peek, nil
}

// Next consumes and returns the next token.
func (l *Lexer) Next() (Token, error) {
	if l.peek != nil {
		t := *l.peek
		l.peek = nil
		return t, nil
	}
	return l.scan()
}

func (l *Lexer) scan() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(rune(c)):
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		return Token{Kind: TokIdent, Text: strings.ToLower(l.src[start:l.pos]), Pos: start}, nil
	case c >= '0' && c <= '9':
		sawDot := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == '.' && !sawDot && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
				sawDot = true
				l.pos++
				continue
			}
			if ch < '0' || ch > '9' {
				break
			}
			l.pos++
		}
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
	case c == '\'':
		l.pos++
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return Token{}, l.Errorf(start, "unterminated string literal")
			}
			ch := l.src[l.pos]
			if ch == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					b.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				break
			}
			b.WriteByte(ch)
			l.pos++
		}
		return Token{Kind: TokString, Text: b.String(), Pos: start}, nil
	case c == '$':
		l.pos++
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		if l.pos == start+1 {
			return Token{}, l.Errorf(start, "empty parameter name after $")
		}
		return Token{Kind: TokParam, Text: strings.ToLower(l.src[start+1 : l.pos]), Pos: start}, nil
	default:
		for _, op := range [...]string{"<>", "!=", "<=", ">=", "&&", "||"} {
			if strings.HasPrefix(l.src[l.pos:], op) {
				l.pos += 2
				return Token{Kind: TokOp, Text: op, Pos: start}, nil
			}
		}
		if strings.ContainsRune("=<>+-*/(),.;", rune(c)) {
			l.pos++
			return Token{Kind: TokOp, Text: string(c), Pos: start}, nil
		}
		return Token{}, l.Errorf(start, "unexpected character %q", c)
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += end + 4
		default:
			return
		}
	}
}

// Identifiers are ASCII: the lexer scans bytes, and a byte of a
// multi-byte sequence read as a rune would split the sequence (or, after
// lower-casing, turn invalid UTF-8 into text that no longer lexes).
func isIdentStart(r rune) bool {
	return r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || (r >= '0' && r <= '9')
}

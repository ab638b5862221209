package ltl

import (
	"fmt"

	lexer "repro/internal/lex"
)

// The parser-side aliases keep internal/ltl decoupled from the shared
// tokenizer's identifiers.
type (
	token   = lexer.Token
	tokKind = lexer.Kind
)

const (
	tokEOF    = lexer.EOF
	tokIdent  = lexer.Ident
	tokNumber = lexer.Number
	tokOp     = lexer.Op
)

// lex tokenizes a property file: ByMC-style temporal operators (<> and []),
// boolean connectives, comparisons and linear arithmetic.
func lex(src string) ([]token, error) {
	toks, err := lexer.Tokens(src, lexer.Config{
		MultiOps:  []string{"<>", "[]", "&&", "||", "->", "==", "!=", "<=", ">="},
		SingleOps: "()<>!+-*:;,",
	})
	if err != nil {
		return nil, fmt.Errorf("ltl: %w", err)
	}
	return toks, nil
}

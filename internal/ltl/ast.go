// Package ltl provides the linear temporal logic surface syntax of the
// paper's specifications: an AST, a lexer/parser for the ByMC-style property
// files of Appendix F (`<>` eventually, `[]` always, `->`, `&&`, `||`,
// comparisons over location counters and shared variables), and a compiler
// from the checkable fragment into spec.Query counterexample problems.
//
// A property file is a list of `name: formula;` entries. Beyond the formula
// syntax of Appendix F it has three things:
//
//   - a property name may join identifiers and numbers with '-' (BV-Just0);
//   - a conjunct of a <>[] premise may carry a label, `bv_obl0: (locM1 == 0
//     || bvb0 < T + 1)`, which names its justice requirement;
//   - a property may end in `resilience c1, c2, ...`, comparisons over the
//     parameters that replace the automaton's resilience condition for that
//     property alone (the syntax of the .ta resilience line).
//
// The bundled properties are specs/*.ltl, compiled by internal/models.
package ltl

import (
	"fmt"
	"strings"
)

// Formula is an LTL formula node.
type Formula interface {
	fmt.Stringer
	isFormula()
}

// CmpOp is a comparison operator in an atomic proposition.
type CmpOp string

// Comparison operators of the surface syntax.
const (
	OpEq CmpOp = "=="
	OpNe CmpOp = "!="
	OpLt CmpOp = "<"
	OpLe CmpOp = "<="
	OpGt CmpOp = ">"
	OpGe CmpOp = ">="
)

// Term is one summand of a linear expression: Coeff * Name, or a constant
// when Name is empty.
type Term struct {
	Coeff int64
	Name  string
}

// Expr is a linear expression over named symbols.
type Expr struct {
	Terms []Term
}

func (e Expr) String() string {
	if len(e.Terms) == 0 {
		return "0"
	}
	var b strings.Builder
	for i, t := range e.Terms {
		c := t.Coeff
		switch {
		case i == 0 && c < 0:
			b.WriteString("-")
			c = -c
		case i > 0 && c < 0:
			b.WriteString(" - ")
			c = -c
		case i > 0:
			b.WriteString(" + ")
		}
		switch {
		case t.Name == "":
			fmt.Fprintf(&b, "%d", c)
		case c == 1:
			b.WriteString(t.Name)
		default:
			fmt.Fprintf(&b, "%d * %s", c, t.Name)
		}
	}
	return b.String()
}

// Atom is the comparison Left Op Right.
type Atom struct {
	Left  Expr
	Op    CmpOp
	Right Expr
}

func (Atom) isFormula() {}
func (a Atom) String() string {
	return fmt.Sprintf("%s %s %s", a.Left, a.Op, a.Right)
}

// UnOp is a unary operator.
type UnOp string

// Unary operators.
const (
	OpNot        UnOp = "!"
	OpEventually UnOp = "<>"
	OpAlways     UnOp = "[]"
)

// Unary applies a unary operator.
type Unary struct {
	Op  UnOp
	Sub Formula
}

func (Unary) isFormula() {}
func (u Unary) String() string {
	return fmt.Sprintf("%s(%s)", u.Op, u.Sub)
}

// BinOp is a binary operator.
type BinOp string

// Binary operators.
const (
	OpAnd     BinOp = "&&"
	OpOr      BinOp = "||"
	OpImplies BinOp = "->"
)

// Binary applies a binary operator.
type Binary struct {
	Op   BinOp
	L, R Formula
}

func (Binary) isFormula() {}
func (b Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Labeled names its subformula. Labels name the conjuncts of a <>[]
// premise: each becomes a justice requirement of that name.
type Labeled struct {
	Label string
	Sub   Formula
}

func (Labeled) isFormula() {}
func (l Labeled) String() string {
	return fmt.Sprintf("%s: %s", l.Label, l.Sub)
}

// conjuncts flattens nested && into a list.
func conjuncts(f Formula) []Formula {
	if b, ok := f.(Binary); ok && b.Op == OpAnd {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []Formula{f}
}

// disjuncts flattens nested || into a list.
func disjuncts(f Formula) []Formula {
	if b, ok := f.(Binary); ok && b.Op == OpOr {
		return append(disjuncts(b.L), disjuncts(b.R)...)
	}
	return []Formula{f}
}

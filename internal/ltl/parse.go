package ltl

import (
	"fmt"
	"strconv"
)

// PropertyFile is a parsed ByMC-style property file: named formulas in
// declaration order, and the resilience clause of each property that has
// one.
type PropertyFile struct {
	Names      []string
	Formulas   map[string]Formula
	Resilience map[string][]Atom
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

// next consumes a token; the trailing EOF token is sticky so that error
// paths deep in expression parsing cannot run past the token slice.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.Kind != tokEOF {
		p.pos++
	}
	return t
}
func (p *parser) at(text string) bool {
	t := p.peek()
	return t.Kind == tokOp && t.Text == text
}
func (p *parser) accept(text string) bool {
	if p.at(text) {
		p.pos++
		return true
	}
	return false
}
func (p *parser) expect(text string) error {
	if !p.accept(text) {
		t := p.peek()
		return fmt.Errorf("ltl: line %d: expected %q, found %q", t.Line, text, t.Text)
	}
	return nil
}

// ParseFile parses a property file of the form
// "name: formula [resilience atom, ...]; ...".
func ParseFile(src string) (*PropertyFile, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	out := &PropertyFile{Formulas: make(map[string]Formula), Resilience: make(map[string][]Atom)}
	for p.peek().Kind != tokEOF {
		name, err := p.propertyName()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		f, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		if t := p.peek(); t.Kind == tokIdent && t.Text == "resilience" {
			p.next()
			if out.Resilience[name.Text], err = p.parseResilience(); err != nil {
				return nil, err
			}
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		if _, dup := out.Formulas[name.Text]; dup {
			return nil, fmt.Errorf("ltl: line %d: duplicate property %q", name.Line, name.Text)
		}
		out.Names = append(out.Names, name.Text)
		out.Formulas[name.Text] = f
	}
	return out, nil
}

// propertyName reads an identifier, or identifiers and numbers joined by
// '-' with no space around it (BV-Just0, Inv1_0-no-resilience).
func (p *parser) propertyName() (token, error) {
	name := p.next()
	if name.Kind != tokIdent {
		return token{}, fmt.Errorf("ltl: line %d: expected property name, found %q", name.Line, name.Text)
	}
	for p.at("-") && p.peek().Pos == name.Pos+len(name.Text) {
		part := p.toks[p.pos+1]
		if (part.Kind != tokIdent && part.Kind != tokNumber) || part.Pos != p.peek().Pos+1 {
			break
		}
		p.pos += 2
		name.Text += "-" + part.Text
	}
	return name, nil
}

// parseResilience parses the comparisons of a resilience clause, separated
// by commas.
func (p *parser) parseResilience() ([]Atom, error) {
	var out []Atom
	for {
		f, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		out = append(out, f.(Atom))
		if !p.accept(",") {
			return out, nil
		}
	}
}

// ParseFormula parses a single formula.
func ParseFormula(src string) (Formula, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	f, err := p.parseFormula()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != tokEOF {
		t := p.peek()
		return nil, fmt.Errorf("ltl: line %d: trailing input %q", t.Line, t.Text)
	}
	return f, nil
}

// parseFormula implements -> (right-associative, lowest precedence).
func (p *parser) parseFormula() (Formula, error) {
	l, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.accept("->") {
		r, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		return Binary{Op: OpImplies, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseOr() (Formula, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("||") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Formula, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.accept("&&") {
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Formula, error) {
	switch {
	case p.accept("<>"):
		sub, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Unary{Op: OpEventually, Sub: sub}, nil
	case p.accept("[]"):
		sub, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Unary{Op: OpAlways, Sub: sub}, nil
	case p.accept("!"):
		sub, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Unary{Op: OpNot, Sub: sub}, nil
	case p.peek().Kind == tokIdent && p.toks[p.pos+1].Text == ":":
		// A label: IDENT ':' names the unary formula after it.
		label := p.next().Text
		p.next()
		sub, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Labeled{Label: label, Sub: sub}, nil
	case p.at("("):
		// Parenthesized formula (expressions may not contain parentheses,
		// so '(' always opens a formula).
		p.next()
		f, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return f, nil
	default:
		return p.parseAtom()
	}
}

func (p *parser) parseAtom() (Formula, error) {
	left, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	var op CmpOp
	switch {
	case p.accept("=="):
		op = OpEq
	case p.accept("!="):
		op = OpNe
	case p.accept("<="):
		op = OpLe
	case p.accept(">="):
		op = OpGe
	case p.accept("<"):
		op = OpLt
	case p.accept(">"):
		op = OpGt
	default:
		return nil, fmt.Errorf("ltl: line %d: expected comparison operator, found %q", t.Line, t.Text)
	}
	right, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return Atom{Left: left, Op: op, Right: right}, nil
}

// parseExpr parses a linear expression: terms joined by + and -.
func (p *parser) parseExpr() (Expr, error) {
	var e Expr
	neg := false
	if p.accept("-") {
		neg = true
	}
	t, err := p.parseTerm(neg)
	if err != nil {
		return Expr{}, err
	}
	e.Terms = append(e.Terms, t)
	for {
		switch {
		case p.accept("+"):
			t, err := p.parseTerm(false)
			if err != nil {
				return Expr{}, err
			}
			e.Terms = append(e.Terms, t)
		case p.accept("-"):
			t, err := p.parseTerm(true)
			if err != nil {
				return Expr{}, err
			}
			e.Terms = append(e.Terms, t)
		default:
			return e, nil
		}
	}
}

// parseTerm parses NUMBER, IDENT, NUMBER '*' IDENT or IDENT '*' NUMBER.
func (p *parser) parseTerm(neg bool) (Term, error) {
	sign := int64(1)
	if neg {
		sign = -1
	}
	t := p.next()
	switch t.Kind {
	case tokNumber:
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return Term{}, fmt.Errorf("ltl: line %d: %v", t.Line, err)
		}
		if p.accept("*") {
			id := p.next()
			if id.Kind != tokIdent {
				return Term{}, fmt.Errorf("ltl: line %d: expected identifier after *", id.Line)
			}
			return Term{Coeff: sign * v, Name: id.Text}, nil
		}
		return Term{Coeff: sign * v}, nil
	case tokIdent:
		if p.accept("*") {
			num := p.next()
			if num.Kind != tokNumber {
				return Term{}, fmt.Errorf("ltl: line %d: expected number after *", num.Line)
			}
			v, err := strconv.ParseInt(num.Text, 10, 64)
			if err != nil {
				return Term{}, fmt.Errorf("ltl: line %d: %v", num.Line, err)
			}
			return Term{Coeff: sign * v, Name: t.Text}, nil
		}
		return Term{Coeff: sign, Name: t.Text}, nil
	default:
		return Term{}, fmt.Errorf("ltl: line %d: expected term, found %q", t.Line, t.Text)
	}
}

// Package taformat implements a textual description format for threshold
// automata, in the spirit of ByMC's input language: a writer that renders
// any ta.TA and a parser that reads it back, so automata can be stored,
// diffed and fed to the checker from files (`holistic verify -ta file.ta`).
//
// Grammar (keywords lead every statement; // and /* */ comments allowed):
//
//	automaton <name> {
//	  parameters n, t, f;
//	  resilience n >= 3*t + 1, t >= f, f >= 0;
//	  correct n - f;
//	  shared b0, b1;
//	  initial V0, V1;
//	  locations B0, B1, C0;
//	  rule r1: V0 -> B0 do b0 += 1;
//	  rule r3: B0 -> C0 when b0 >= 2*t - f + 1;
//	  self C0;
//	  switch rs1: C0 ~> V0;
//	}
//
// Guards are conjunctions of linear comparisons over shared variables and
// parameters (`when c1, c2`); updates are increments (`do v += 1, w += 2`);
// `self` adds an unguarded self-loop; `switch` declares a round-switch
// (dotted) rule.
package taformat

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/ta"
)

// Write renders the automaton.
func Write(w io.Writer, a *ta.TA) error {
	var b strings.Builder
	fmt.Fprintf(&b, "automaton %s {\n", a.Name)

	names := func(syms []expr.Sym) string {
		out := make([]string, len(syms))
		for i, s := range syms {
			out[i] = a.Table.Name(s)
		}
		return strings.Join(out, ", ")
	}
	fmt.Fprintf(&b, "  parameters %s;\n", names(a.Params))
	if len(a.Resilience) > 0 {
		parts := make([]string, len(a.Resilience))
		for i, c := range a.Resilience {
			parts[i] = renderConstraint(a, c)
		}
		fmt.Fprintf(&b, "  resilience %s;\n", strings.Join(parts, ", "))
	}
	fmt.Fprintf(&b, "  correct %s;\n", a.CorrectCount.String(a.Table))
	if len(a.Shared) > 0 {
		fmt.Fprintf(&b, "  shared %s;\n", names(a.Shared))
	}

	var initial, interior []string
	for _, l := range a.Locations {
		if l.Initial {
			initial = append(initial, l.Name)
		} else {
			interior = append(interior, l.Name)
		}
	}
	if len(initial) > 0 {
		fmt.Fprintf(&b, "  initial %s;\n", strings.Join(initial, ", "))
	}
	if len(interior) > 0 {
		fmt.Fprintf(&b, "  locations %s;\n", strings.Join(interior, ", "))
	}
	b.WriteString("\n")

	for _, r := range a.Rules {
		switch {
		case r.SelfLoop() && len(r.Guard) == 0 && len(r.Update) == 0:
			fmt.Fprintf(&b, "  self %s;\n", a.Locations[r.From].Name)
		case r.RoundSwitch:
			fmt.Fprintf(&b, "  switch %s: %s ~> %s;\n",
				r.Name, a.Locations[r.From].Name, a.Locations[r.To].Name)
		default:
			fmt.Fprintf(&b, "  rule %s: %s -> %s", r.Name,
				a.Locations[r.From].Name, a.Locations[r.To].Name)
			if len(r.Guard) > 0 {
				parts := make([]string, len(r.Guard))
				for i, g := range r.Guard {
					parts[i] = renderConstraint(a, g)
				}
				fmt.Fprintf(&b, " when %s", strings.Join(parts, ", "))
			}
			if len(r.Update) > 0 {
				var ups []string
				var syms []expr.Sym
				for s := range r.Update {
					syms = append(syms, s)
				}
				sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
				for _, s := range syms {
					ups = append(ups, fmt.Sprintf("%s += %d", a.Table.Name(s), r.Update[s]))
				}
				fmt.Fprintf(&b, " do %s", strings.Join(ups, ", "))
			}
			b.WriteString(";\n")
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Format renders the automaton to a string.
func Format(a *ta.TA) (string, error) {
	var b strings.Builder
	if err := Write(&b, a); err != nil {
		return "", err
	}
	return b.String(), nil
}

// renderConstraint pretty-prints `L >= 0` (or `L == 0`) as `lhs >= rhs`,
// moving negative terms to the right-hand side: b0 - 2t + f - 1 >= 0
// becomes b0 + f >= 2*t + 1.
func renderConstraint(a *ta.TA, c expr.Constraint) string {
	lhs := expr.Lin{}
	rhs := expr.Lin{}
	for _, t := range c.L.Terms() {
		if t.Coeff > 0 {
			_ = lhs.AddTerm(t.Sym, t.Coeff)
		} else {
			_ = rhs.AddTerm(t.Sym, -t.Coeff)
		}
	}
	if c.L.Const > 0 {
		_ = lhs.AddConst(c.L.Const)
	} else {
		_ = rhs.AddConst(-c.L.Const)
	}
	op := ">="
	if c.Op == expr.EQ {
		op = "=="
	}
	return fmt.Sprintf("%s %s %s", lhs.String(a.Table), op, rhs.String(a.Table))
}

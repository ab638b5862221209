package vcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/spec"
	"repro/internal/ta"
)

// The fmt-based canonical renderer the strconv one in canon.go replaced,
// kept as the reference it must match byte for byte
// (TestCanonicalMatchesReference); only its term loop changed, to read the
// expression's terms rather than its former coefficient map.

func refCanonLin(tab *expr.Table, l expr.Lin) string {
	type term struct {
		name  string
		coeff int64
	}
	terms := make([]term, 0, len(l.Terms()))
	for _, t := range l.Terms() {
		terms = append(terms, term{tab.Name(t.Sym), t.Coeff})
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].name < terms[j].name })
	var b strings.Builder
	fmt.Fprintf(&b, "%d", l.Const)
	for _, t := range terms {
		fmt.Fprintf(&b, "%+d*%s", t.coeff, t.name)
	}
	return b.String()
}

func refCanonConstraints(tab *expr.Table, cs []expr.Constraint) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = refCanonLin(tab, c.L) + " " + c.Op.String() + " 0"
	}
	return strings.Join(parts, "; ")
}

func refCanonLocSet(a *ta.TA, s ta.LocSet) string {
	names := make([]string, 0, len(s))
	for l, in := range s {
		if in {
			names = append(names, a.Locations[l].Name)
		}
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ",") + "}"
}

func refCanonicalTA(a *ta.TA) string {
	tab := a.Table
	names := func(syms []expr.Sym) string {
		out := make([]string, len(syms))
		for i, s := range syms {
			out[i] = tab.Name(s)
		}
		return strings.Join(out, ",")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ta %s\n", a.Name)
	fmt.Fprintf(&b, "params %s\n", names(a.Params))
	fmt.Fprintf(&b, "shared %s\n", names(a.Shared))
	fmt.Fprintf(&b, "resilience %s\n", refCanonConstraints(tab, a.Resilience))
	fmt.Fprintf(&b, "correct %s\n", refCanonLin(tab, a.CorrectCount))
	for _, l := range a.Locations {
		// Fixed empty Table 1 fields, as in canon.automaton.
		fmt.Fprintf(&b, "loc %s initial=%t broadcast=[] delivered=[]\n", l.Name, l.Initial)
	}
	for _, r := range a.Rules {
		fmt.Fprintf(&b, "rule %s %s->%s switch=%t guard=[%s] update=[",
			r.Name, a.Locations[r.From].Name, a.Locations[r.To].Name,
			r.RoundSwitch, refCanonConstraints(tab, r.Guard))
		ups := make([]string, 0, len(r.Update))
		for s, d := range r.Update {
			ups = append(ups, fmt.Sprintf("%s+=%d", tab.Name(s), d))
		}
		sort.Strings(ups)
		b.WriteString(strings.Join(ups, ","))
		b.WriteString("]\n")
	}
	return b.String()
}

func refCanonicalQuery(a *ta.TA, q *spec.Query) string {
	tab := a.Table
	locNames := func(ls []ta.LocID) string {
		out := make([]string, len(ls))
		for i, l := range ls {
			out[i] = a.Locations[l].Name
		}
		return strings.Join(out, ",")
	}
	sets := func(ss []ta.LocSet) string {
		out := make([]string, len(ss))
		for i, s := range ss {
			out[i] = refCanonLocSet(a, s)
		}
		return strings.Join(out, ";")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "query %s kind=%s\n", q.Name, q.Kind)
	fmt.Fprintf(&b, "init_empty %s\n", locNames(q.InitEmpty))
	fmt.Fprintf(&b, "global_empty %s\n", locNames(q.GlobalEmpty))
	fmt.Fprintf(&b, "visit %s\n", sets(q.VisitNonempty))
	fmt.Fprintf(&b, "final_shared %s\n", refCanonConstraints(tab, q.FinalShared))
	fmt.Fprintf(&b, "final_nonempty %s\n", sets(q.FinalNonempty))
	for _, j := range q.Justice {
		fmt.Fprintf(&b, "justice %s trigger=[%s] loc=%s\n",
			j.Name, refCanonConstraints(tab, j.Trigger), a.Locations[j.Loc].Name)
	}
	if q.RelaxResilience != nil {
		fmt.Fprintf(&b, "relax_resilience %s\n", refCanonConstraints(tab, q.RelaxResilience))
	}
	return b.String()
}

func refKey(a *ta.TA, q *spec.Query, cfg Config, engineVersion string) string {
	h := sha256.New()
	fmt.Fprintf(h, "vcache/1\nengine %s\n", engineVersion)
	fmt.Fprintf(h, "mode %s max_schemas %d max_splits %d extra_passes %d\n",
		cfg.Mode, cfg.MaxSchemas, cfg.MaxSplits, cfg.ExtraPasses)
	io.WriteString(h, refCanonicalTA(a))
	io.WriteString(h, refCanonicalQuery(a, q))
	return hex.EncodeToString(h.Sum(nil))
}

func refTAHash(a *ta.TA) string {
	h := sha256.New()
	io.WriteString(h, "vcache/1\n")
	io.WriteString(h, refCanonicalTA(a))
	return hex.EncodeToString(h.Sum(nil))
}

package schema

import (
	"fmt"

	"repro/internal/counter"
	"repro/internal/expr"
	"repro/internal/spec"
	"repro/internal/ta"
)

// certify re-checks every condition of the query against a concrete replayed
// trace, independently of the SMT encoding.
func certify(sys *counter.System, q *spec.Query, trace []counter.Config) error {
	if len(trace) == 0 {
		return fmt.Errorf("empty trace")
	}
	a := sys.TA
	for _, l := range q.InitEmpty {
		if trace[0].K[l] != 0 {
			return fmt.Errorf("InitEmpty violated at %s", a.Locations[l].Name)
		}
	}
	for _, l := range q.GlobalEmpty {
		for i, c := range trace {
			if c.K[l] != 0 {
				return fmt.Errorf("GlobalEmpty violated at %s (frame %d)", a.Locations[l].Name, i)
			}
		}
	}
	for _, set := range q.VisitNonempty {
		visited := false
		for _, c := range trace {
			if sys.SumLocs(c, set) > 0 {
				visited = true
				break
			}
		}
		if !visited {
			return fmt.Errorf("visit witness %s never satisfied", set.String(a))
		}
	}
	return sys.Final(trace[len(trace)-1], q)
}

// Certify replays a counterexample run on the concrete counter system of the
// (one-round) automaton and re-checks every condition of the query against
// the trace, exactly as the engine does before reporting a violation. The
// result cache runs it on every cached Violated entry before trusting it: a
// corrupted or stale counterexample fails the replay and the entry is
// treated as a miss — a wrong verdict can never be served from disk.
func Certify(a *ta.TA, q *spec.Query, params map[expr.Sym]int64, run counter.Run) (*counter.System, error) {
	sysTA := a
	if q.RelaxResilience != nil {
		sysTA = a.WithResilience(q.RelaxResilience)
	}
	sys, err := counter.NewSystem(sysTA, params, 1)
	if err != nil {
		return nil, err
	}
	trace, err := sys.Replay(run)
	if err != nil {
		return nil, err
	}
	if err := certify(sys, q, trace); err != nil {
		return nil, err
	}
	return sys, nil
}

package counter

import (
	"fmt"
	"strconv"

	"repro/internal/expr"
	"repro/internal/spec"
	"repro/internal/ta"
)

// ExplicitResult is the outcome of checking one query for fixed parameters.
type ExplicitResult struct {
	Outcome spec.Outcome
	// Witness is a configuration witnessing the violation (zero-value when
	// the property holds).
	Witness Config
	// Run is the full violating execution, replayable with System.Replay
	// (nil when the property holds).
	Run    *Run
	States int
}

// CheckQueryExplicit decides a spec.Query by explicit-state breadth-first
// search over the counter system: the fixed-parameter baseline against
// which the parameterized schema checker is cross-validated, exact for one
// parameter instance but subject to state explosion as n grows.
//
// Visit witnesses are tracked with per-set "visited" flags folded into the
// explored state, so the search is exact even for location sets that a
// process can leave again. In a multi-round system a set counts as visited
// when any round holds a process in it, and InitEmpty constrains round 0:
// the search then decides cross-round properties such as the full
// Agreement and Validity of Section 5.1, with their two independent round
// quantifiers, which the paper reduces to one-superround invariants.
// Successors are generated round by round, and within a round in rule
// order.
func CheckQueryExplicit(sys *System, q *spec.Query, maxStates int) (ExplicitResult, error) {
	vt := sys.TA
	if sys.Rounds > 1 {
		// Round 0's entry locations have incoming round switches; InitEmpty
		// is about round 0 only, as in the one-round projection.
		vt = vt.OneRound()
	}
	if err := q.Validate(vt); err != nil {
		return ExplicitResult{}, err
	}
	if maxStates <= 0 {
		maxStates = 2_000_000
	}

	globalEmpty := make(map[ta.LocID]bool, len(q.GlobalEmpty))
	for _, l := range q.GlobalEmpty {
		globalEmpty[l] = true
	}
	initEmpty := make(map[ta.LocID]bool, len(q.InitEmpty))
	for _, l := range q.InitEmpty {
		initEmpty[l] = true
	}

	type state struct {
		c     Config
		flags uint32
	}
	if len(q.VisitNonempty) > 31 {
		return ExplicitResult{}, fmt.Errorf("counter: too many visit witnesses (%d)", len(q.VisitNonempty))
	}
	allFlags := uint32(1)<<len(q.VisitNonempty) - 1

	flagsOf := func(base uint32, c Config) uint32 {
		f := base
		for i, set := range q.VisitNonempty {
			if f&(1<<i) == 0 && sys.SumLocs(c, set) > 0 {
				f |= 1 << i
			}
		}
		return f
	}

	isViolation := func(s state) (bool, error) {
		if s.flags != allFlags {
			return false, nil
		}
		switch err := sys.Final(s.c, q).(type) {
		case nil:
			return true, nil
		case *unmet:
			return false, nil
		default:
			return false, err
		}
	}

	// seen holds every state pushed, with the state it was reached from
	// ("" for an initial state) and the step.
	type parentLink struct {
		key  string
		step Step
	}
	seen := make(map[string]parentLink)
	initials := make(map[string]Config)
	var queue []state
	res := ExplicitResult{Outcome: spec.Holds}

	// A state's key is its configuration's Key, '#', and its visit flags.
	var keyBuf []byte
	keyBytes := func(s state) []byte {
		keyBuf = strconv.AppendUint(append(s.c.appendKey(keyBuf[:0]), '#'), uint64(s.flags), 10)
		return keyBuf
	}
	stateKey := func(s state) string { return string(keyBytes(s)) }
	push := func(s state, from string, step Step) {
		if _, ok := seen[string(keyBytes(s))]; ok {
			return
		}
		key := string(keyBuf)
		seen[key] = parentLink{key: from, step: step}
		if from == "" {
			initials[key] = s.c
		}
		queue = append(queue, s)
	}
	reconstruct := func(s state) (*Run, error) {
		var steps []Step
		key := stateKey(s)
		for {
			if init, ok := initials[key]; ok {
				for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
					steps[i], steps[j] = steps[j], steps[i]
				}
				return &Run{Init: init, Steps: steps}, nil
			}
			link, ok := seen[key]
			if !ok {
				return nil, fmt.Errorf("counter: broken parent chain")
			}
			steps = append(steps, link.step)
			key = link.key
		}
	}

	err := sys.EnumerateInitial(func(c Config) error {
		for l := range initEmpty {
			if c.K[l] != 0 {
				return nil
			}
		}
		for l := range globalEmpty {
			if c.K[l] != 0 {
				return nil
			}
		}
		push(state{c: c, flags: flagsOf(0, c)}, "", Step{})
		return nil
	})
	if err != nil {
		return ExplicitResult{}, err
	}

	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		res.States++
		if res.States > maxStates {
			res.Outcome = spec.Budget
			return res, nil
		}
		hit, err := isViolation(s)
		if err != nil {
			return ExplicitResult{}, err
		}
		if hit {
			res.Outcome = spec.Violated
			res.Witness = s.c
			run, err := reconstruct(s)
			if err != nil {
				return ExplicitResult{}, err
			}
			res.Run = run
			return res, nil
		}
		sKey := stateKey(s)
		for round := 0; round < sys.Rounds; round++ {
			for ri, r := range sys.TA.Rules {
				if r.SelfLoop() {
					continue
				}
				if globalEmpty[r.To] {
					continue // runs violating the □-premise are not counterexamples
				}
				en, err := sys.Enabled(s.c, round, ri)
				if err != nil {
					return ExplicitResult{}, err
				}
				if !en {
					continue
				}
				st := Step{Round: round, Rule: ri, Factor: 1}
				next, err := sys.Apply(s.c, st)
				if err != nil {
					return ExplicitResult{}, err
				}
				push(state{c: next, flags: flagsOf(s.flags, next)}, sKey, st)
			}
		}
	}
	return res, nil
}

// ParamsFor builds a parameter valuation for the conventional n, t, f
// parameters of a TA.
func ParamsFor(a *ta.TA, n, t, f int64) map[expr.Sym]int64 {
	return map[expr.Sym]int64{a.Params[0]: n, a.Params[1]: t, a.Params[2]: f}
}

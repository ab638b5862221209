package service

import (
	"fmt"

	"repro/internal/ltl"
	"repro/internal/models"
	"repro/internal/schema"
	"repro/internal/spec"
	"repro/internal/ta"
	"repro/internal/taformat"
)

// BuiltinModel resolves a bundled model name to its automaton and property
// set — the single registry shared by the holistic CLI and the serving
// plane, so a remote verification of "simplified" runs exactly the queries a
// local one does.
func BuiltinModel(name string) (*ta.TA, []spec.Query, error) {
	switch name {
	case "bv", "bvbroadcast":
		a := models.BVBroadcast()
		qs, err := models.BVQueries(a)
		return a, qs, err
	case "naive":
		a := models.NaiveConsensus()
		qs, err := models.NaiveQueries(a)
		return a, qs, err
	case "simplified":
		a := models.SimplifiedConsensus()
		qs, err := models.SimplifiedQueries(a)
		return a, qs, err
	case "strb":
		a := models.STReliableBroadcast()
		qs, err := models.STRBQueries(a)
		return a, qs, err
	case "bosco":
		a := models.Bosco()
		qs, err := models.BoscoQueries(a)
		return a, qs, err
	case "sba":
		a := models.SBA()
		qs, err := models.SBAQueries(a)
		return a, qs, err
	default:
		return nil, nil, fmt.Errorf("unknown model %q (want bv, naive, simplified, strb, bosco or sba)", name)
	}
}

// resolveRequest turns a VerifyRequest into the automaton, model label,
// query list and schema mode to check — the one place a request is validated,
// so every endpoint rejects a bad one with the same 400 before doing any
// work. Exactly one of Model and TA must be set; TA requires Spec (the LTL
// property file text to compile against it).
func resolveRequest(req *VerifyRequest) (*ta.TA, string, []spec.Query, schema.Mode, error) {
	var (
		a       *ta.TA
		queries []spec.Query
		label   string
		err     error
	)
	mode := schema.Staged
	switch req.Mode {
	case "", "staged":
	case "full":
		mode = schema.FullEnumeration
	default:
		return nil, "", nil, 0, fmt.Errorf("unknown mode %q (want staged or full)", req.Mode)
	}
	switch {
	case req.Model != "" && req.TA != "":
		return nil, "", nil, 0, fmt.Errorf("request sets both model and ta; pick one")
	case req.Model != "":
		label = req.Model
		a, queries, err = BuiltinModel(req.Model)
		if err != nil {
			return nil, "", nil, 0, err
		}
	case req.TA != "":
		if req.Spec == "" {
			return nil, "", nil, 0, fmt.Errorf("a ta payload requires a spec payload with the properties to check")
		}
		a, err = taformat.Parse(req.TA)
		if err != nil {
			return nil, "", nil, 0, fmt.Errorf("parsing ta: %w", err)
		}
		label = a.Name
		pf, perr := ltl.ParseFile(req.Spec)
		if perr != nil {
			return nil, "", nil, 0, fmt.Errorf("parsing spec: %w", perr)
		}
		queries, err = ltl.CompileFile(pf, a)
		if err != nil {
			return nil, "", nil, 0, fmt.Errorf("compiling spec: %w", err)
		}
	default:
		return nil, "", nil, 0, fmt.Errorf("request names no model and carries no ta")
	}
	if req.Prop != "" {
		var filtered []spec.Query
		for i := range queries {
			if queries[i].Name == req.Prop {
				filtered = append(filtered, queries[i])
			}
		}
		if len(filtered) == 0 {
			return nil, "", nil, 0, fmt.Errorf("no property %q in model %s", req.Prop, label)
		}
		queries = filtered
	}
	return a, label, queries, mode, nil
}

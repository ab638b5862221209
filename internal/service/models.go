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

// Resolved is a validated VerifyRequest: the automaton, its report label
// (the bundled model's name, or the parsed automaton's), the queries to
// check and the schema mode.
type Resolved struct {
	TA      *ta.TA
	Label   string
	Queries []spec.Query
	Mode    schema.Mode
}

// Resolve validates a VerifyRequest and turns it into what to check — the
// one place "model | ta+spec, prop, mode" is interpreted, shared by
// /v1/verify, /v1/enqueue, cluster job payloads and the holistic CLI, so
// every entry point rejects a bad request with the same message before doing
// any work. Exactly one of Model and TA must be set; TA requires Spec (the
// LTL property file text to compile against it); a non-empty Prop must name
// one of the resulting queries.
func Resolve(req *VerifyRequest) (*Resolved, error) {
	mode, err := schema.ParseMode(req.Mode)
	if err != nil {
		return nil, err
	}
	r := &Resolved{Mode: mode}
	switch {
	case req.Model != "" && req.TA != "":
		return nil, fmt.Errorf("request sets both model and ta; pick one")
	case req.Model != "":
		r.Label = req.Model
		r.TA, r.Queries, err = BuiltinModel(req.Model)
		if err != nil {
			return nil, err
		}
	case req.TA != "":
		if req.Spec == "" {
			return nil, fmt.Errorf("a ta payload requires a spec payload with the properties to check")
		}
		r.TA, err = taformat.Parse(req.TA)
		if err != nil {
			return nil, fmt.Errorf("parsing ta: %w", err)
		}
		r.Label = r.TA.Name
		pf, err := ltl.ParseFile(req.Spec)
		if err != nil {
			return nil, fmt.Errorf("parsing spec: %w", err)
		}
		r.Queries, err = ltl.CompileFile(pf, r.TA)
		if err != nil {
			return nil, fmt.Errorf("compiling spec: %w", err)
		}
	default:
		return nil, fmt.Errorf("request names no model and carries no ta")
	}
	if req.Prop != "" {
		var filtered []spec.Query
		for i := range r.Queries {
			if r.Queries[i].Name == req.Prop {
				filtered = append(filtered, r.Queries[i])
			}
		}
		if len(filtered) == 0 {
			return nil, fmt.Errorf("no property %q in model %s", req.Prop, r.Label)
		}
		r.Queries = filtered
	}
	return r, nil
}

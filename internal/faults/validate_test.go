package faults

import (
	"strings"
	"testing"

	"repro/internal/network"
)

const validScenarioJSON = `{
	"n": 4, "t": 1, "max_rounds": 12, "max_steps": 100000, "tick": 25,
	"inputs": [1, 0, 1],
	"byz": ["liar"],
	"sched": "random",
	"durable": true,
	"plan": {"seed": 7, "storage": [{"proc": 0, "append": 3, "kind": "kill", "recover": 50}]}
}`

func TestParseScenarioValid(t *testing.T) {
	sc, err := ParseScenario(validScenarioJSON)
	if err != nil {
		t.Fatal(err)
	}
	if sc.N != 4 || !sc.Durable || len(sc.Plan.Storage) != 1 {
		t.Fatalf("parsed = %+v", sc)
	}
}

func TestParseScenarioSyntaxErrorHasLineCol(t *testing.T) {
	_, err := ParseScenario("{\n\"n\": 4,\n\"t\": }")
	if err == nil {
		t.Fatal("syntax error accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("diagnostic lacks the line number: %v", err)
	}
}

func TestParseScenarioUnknownFieldRejected(t *testing.T) {
	_, err := ParseScenario(`{"n": 4, "t": 1, "inputs": [0,1,0], "byz": ["liar"], "wibble": 3, "plan": {"seed": 1}}`)
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	if !strings.Contains(err.Error(), "wibble") {
		t.Fatalf("diagnostic lacks the field name: %v", err)
	}
}

func TestParseScenarioTypeErrorNamesField(t *testing.T) {
	_, err := ParseScenario("{\n\"n\": \"four\"\n}")
	if err == nil {
		t.Fatal("type mismatch accepted")
	}
	if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "n") {
		t.Fatalf("diagnostic lacks line/field: %v", err)
	}
}

func TestParseScenarioTrailingDataRejected(t *testing.T) {
	_, err := ParseScenario(validScenarioJSON + ` {"more": 1}`)
	if err == nil {
		t.Fatal("trailing data accepted")
	}
	if !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("diagnostic: %v", err)
	}
}

func TestValidateFieldPaths(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string // substring of the diagnostic: the field path
	}{
		{"resilience", func(sc *Scenario) { sc.T = 2 }, "n > 3t"},
		{"bad input", func(sc *Scenario) { sc.Inputs[1] = 2 }, "inputs[1]"},
		{"bad strategy", func(sc *Scenario) { sc.Byz[0] = "saboteur" }, "byz[0]"},
		{"count mismatch", func(sc *Scenario) { sc.Inputs = sc.Inputs[:2] }, "2 inputs"},
		{"bad sched", func(sc *Scenario) { sc.Sched = "chaotic" }, "sched"},
		{"drop prob", func(sc *Scenario) { sc.Plan.Drops = []DropRule{{Prob: 1.5, Budget: 1}} }, "plan.drops[0].prob"},
		{"drop kind", func(sc *Scenario) { sc.Plan.Drops = []DropRule{{Kind: "ZAP", Prob: 0.5, Budget: 1}} }, "plan.drops[0].kind"},
		{"drop kind vocabulary", func(sc *Scenario) { sc.Plan.Drops = []DropRule{{Kind: "VOTE", Prob: 0.5, Budget: 1}} }, "want BV or AUX"},
		{"delay steps", func(sc *Scenario) { sc.Plan.DelayProb = 0.3 }, "plan.delay_steps"},
		{"partition group", func(sc *Scenario) {
			sc.Plan.Partitions = []Partition{{Start: 1, Heal: 9, GroupA: []network.ProcID{9}}}
		}, "plan.partitions[0].group_a[0]"},
		{"crash proc", func(sc *Scenario) { sc.Plan.Crashes = []Crash{{Proc: 3, At: 5, Recover: 9}} }, "plan.crashes[0].proc"},
		{"crash window", func(sc *Scenario) { sc.Plan.Crashes = []Crash{{Proc: 1, At: 9, Recover: 5}} }, "plan.crashes[0].recover"},
		{"storage needs durable", func(sc *Scenario) { sc.Durable = false }, "durable"},
		{"storage proc", func(sc *Scenario) { sc.Plan.Storage[0].Proc = 5 }, "plan.storage[0].proc"},
		{"storage kind", func(sc *Scenario) { sc.Plan.Storage[0].Kind = "melt" }, "plan.storage[0].kind"},
		{"storage append", func(sc *Scenario) { sc.Plan.Storage[0].Append = 0 }, "plan.storage[0].append"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := ParseScenario(validScenarioJSON)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(&sc)
			err = sc.Validate()
			if err == nil {
				t.Fatal("invalid scenario accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("diagnostic %q lacks %q", err, tc.want)
			}
		})
	}
}

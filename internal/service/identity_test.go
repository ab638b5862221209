package service

import (
	"testing"

	"repro/internal/models"
	"repro/internal/schema"
	"repro/internal/spec"
	"repro/internal/ta"
	"repro/internal/vcache"
)

// pinnedKeys is the cache key of every bundled query, in the registry's
// order, recorded while the queries were still built in Go (the last row is
// the relaxed-resilience counterexample query). A key covers the
// automaton, the query with its name, justice and resilience, the engine
// options and the engine version, so these literals pin the compiled
// property files to the queries they replaced.
var pinnedKeys = []struct{ model, query, key string }{
	{"bv", "BV-Just0", "adfd9a944ab693a1511d174d3d056621a2fa145d631ccd897b253ff0e208d5b4"},
	{"bv", "BV-Obl0", "a6537633cb7e2e448336c4a826e65cb02a96f0840e32dfdd7209117655632075"},
	{"bv", "BV-Unif0", "caba9216cc048a2303b3a0f2b2266a9dd568a8e7b7f9a5f84381ae7d36304841"},
	{"bv", "BV-Just1", "eb3ee11f18a3351ebab4ffd32748a1dbe31c7bbf78c1271d062c8ea7b020b74f"},
	{"bv", "BV-Obl1", "1c8b8eccba69a764aaa998ae3325bd443fe3dd6e345a2f7902bad2ade97d3f2d"},
	{"bv", "BV-Unif1", "302b2140d1514f06820719c55b35f32033e35a33d5ba94f2d79b2f7d6dc486b1"},
	{"bv", "BV-Term", "67b8fc517f58e87081a5792d74d54e2fbe4317f5c22b02e2c4824d151585818d"},
	{"naive", "Inv1_0", "db86b5dee5b6270dc0dbd3ac057bf90827d6f036e546df929866e12f955b8c2f"},
	{"naive", "Inv2_0", "7a04724c58eda2c5254d2ae6cbc644ac2fb6ab389a9dd746cbbadc542109f9ea"},
	{"naive", "SRoundTerm", "054630a97e9306eed728ca7dc13f741bca724db203f95f3b5f77c1c48225254a"},
	{"simplified", "Inv1_0", "09ee77f870260d3da83f2cd3fc12a6e9578853b16b1e210dd7a7529403921c64"},
	{"simplified", "Inv1_1", "2061c22f8cceb14716fa163fd70237eb13b0d6872cda2195edd1fb21c1727252"},
	{"simplified", "Inv2_0", "6e4790c5d0f7ab2076880e743de5e9ca899fcbc0c8ed566f37778acf64a77aad"},
	{"simplified", "Inv2_1", "36dd2aa198a22279c0fee313f3264f2f8b77a408247dadbc065cdebcbc245d0e"},
	{"simplified", "SRoundTerm", "2ed199fb776ac1ecb9821c167525a56d8538433c4a19a520b3b97d94a233fa9f"},
	{"simplified", "Dec_0", "4300f008665c3ea2db4766a75271c1f99a05e431db8c5f4d80d9f1b35076d2d7"},
	{"simplified", "Dec_1", "405df71a064601c5e5f3e02da2a67d7b7cc77cdc45d5f639faeea6c294e63df8"},
	{"simplified", "Good_0", "6dda5b010eca5ce18190da6e1e4976dbbcdd4c45a7ef25ff767de799cd468c48"},
	{"simplified", "Good_1", "fcb5f1f2c6cd96430de7067eb2cece5239543e5e463ced80cf60e063de5496f6"},
	{"strb", "Unforgeability", "5ae68b851fa44089608ad6f056b91669a1492c68bbe1cf6e2172496a37f66e89"},
	{"strb", "Correctness", "91d8f9cfabcde13a5216546ff4266ed0c74e761c7123874637adf59682a2dd2d"},
	{"strb", "Relay", "84dd0c310825ef15baf10921f314b29e222adca9875627ed6c774a74f45a354a"},
	{"bosco", "Lemma1_0", "b8170bbec174a9180d87d1915bfc168699343cf9788b5fbdc6a3b91626c6e653"},
	{"bosco", "Lemma1_1", "f69bf2948e56d3938df7c3dda3793ebb5dde9571b395412cfc7277b9150a1ccc"},
	{"bosco", "WeaklyOneStep", "15a76708937606bf03f22512f894b447f6fc92f044a6c254a0a323d52bbe3599"},
	{"bosco", "StronglyOneStep", "3aabcc7055593fc964fd4846ce1d319e154b13639c53c27670afa741873a79e8"},
	{"bosco", "OneStepGap", "75c92eac51845b3f9e5a1282c47525d8ecb6da3a31058f6ea354b5fa6d0fe205"},
	{"sba", "Inv1_0", "2c4f2253670b88967f58e1ffeda6768b79a286a8ec46983ebb960c70c07df2a3"},
	{"sba", "Inv1_1", "a845e95fe28447dc5921d31ce65f896c75bf6d55f876f0a169b0c8adb419aed2"},
	{"sba", "Inv2_0", "1e2ae389044210da82e1cabbf0168f1afce3112d4c13f5a3a25195a8fac1d709"},
	{"sba", "Inv2_1", "89761a1186880b1abf61389b940a332525404fde446441ca02ae81a74d0f6ef6"},
	{"sba", "Lock_0", "f0c25fb62a4248bdabe39af8f0b6d0b39f5a0e83c04a326a9c777bf7b0124354"},
	{"sba", "Lock_1", "d792aa24f5725c4d70cc2dae0f2d883d336dbbe6507829e99965e9557fdba305"},
	{"sba", "SBARoundTerm", "fc7c948371107c2edab460e2318ffddb3ca2213729c0d2164890923b3ab039d1"},
	{"sba", "Quiet_0", "f9e3bb248218c856cee77e3c33fefb0c7716c406feaaba68695edcdd2f80e18b"},
	{"sba", "Quiet_1", "375d5ed765ac5b6b26afbea132ab23e78f1644b0853efeb6518d273074631fda"},
	{"simplified", "Inv1_0-no-resilience", "eec471f2cfc55dc95dd714642163258b50493c985cbc85d897ba741d4be5750d"},
}

// keysOf is the cache keys a request's queries are stored under: Resolve,
// then the engine a verification builds, as Server.resolve derives them.
func keysOf(t *testing.T, a *ta.TA, qs []spec.Query, mode schema.Mode) []string {
	t.Helper()
	eng, err := schema.New(a, schema.Options{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return vcache.Keys(eng.TA(), qs, vcache.ConfigOf(eng.Opts()), vcache.EngineVersion)
}

func requestKeys(t *testing.T, req VerifyRequest) []string {
	t.Helper()
	r, err := Resolve(&req)
	if err != nil {
		t.Fatal(err)
	}
	return keysOf(t, r.TA, r.Queries, r.Mode)
}

// Every bundled query keeps its name and its cache key.
func TestBundledKeysPinned(t *testing.T) {
	type row struct{ model, query, key string }
	var got []row
	for _, m := range models.Bundled {
		r, err := Resolve(&VerifyRequest{Model: m.Name})
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keysOf(t, r.TA, r.Queries, r.Mode) {
			got = append(got, row{m.Name, r.Queries[i].Name, k})
		}
	}
	a := models.SimplifiedConsensus()
	ce, err := models.Inv1CounterexampleQuery(a)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, row{"simplified", ce.Name, keysOf(t, a, []spec.Query{ce}, schema.Staged)[0]})
	if len(got) != len(pinnedKeys) {
		t.Fatalf("%d bundled queries, %d pinned", len(got), len(pinnedKeys))
	}
	for i, want := range pinnedKeys {
		if got[i] != row(want) {
			t.Errorf("query %d: %s/%s key %s, pinned %s/%s key %s", i, got[i].model, got[i].query, got[i].key, want.model, want.query, want.key)
		}
	}
}

// -model M, -model M -spec specs/M.ltl and -ta specs/M.ta -spec
// specs/M.ltl are one request: every query has the same cache key.
func TestSpecFormsShareKeys(t *testing.T) {
	for _, m := range models.Bundled {
		props := specPayload(t, m.Props)
		want := requestKeys(t, VerifyRequest{Model: m.Name})
		for _, req := range []VerifyRequest{
			{Model: m.Name, Spec: props},
			{TA: specPayload(t, m.File), Spec: props},
		} {
			got := requestKeys(t, req)
			if len(got) != len(want) {
				t.Fatalf("%s: %d keys, want %d", m.Name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s (ta set: %v): query %d key %s, -model %s gives %s", m.Name, req.TA != "", i, got[i], m.Name, want[i])
				}
			}
		}
	}
}

package faults

import (
	"strings"
	"testing"

	"repro/internal/network"
)

// durableScenario is a quiet durable baseline: 4 replicas, no network
// faults, storage faults supplied by the caller.
func durableScenario(seed int64, storage []StorageFault) Scenario {
	return Scenario{
		N: 4, T: 1, MaxRounds: 12, MaxSteps: 120_000, Tick: 25,
		Inputs:  []int{1, 0, 1, 0},
		Sched:   "random",
		Durable: true,
		Plan:    Plan{Seed: seed, Storage: storage},
	}
}

func assertCleanRun(t *testing.T, out Outcome) {
	t.Helper()
	if out.Err != nil {
		t.Fatalf("run error: %v", out.Err)
	}
	if out.AgreementErr != nil {
		t.Errorf("agreement: %v", out.AgreementErr)
	}
	if out.ValidityErr != nil {
		t.Errorf("validity: %v", out.ValidityErr)
	}
	if len(out.Contradictions) > 0 {
		t.Errorf("contradictions: %v", out.Contradictions)
	}
	if len(out.SilentCorruptions) > 0 {
		t.Errorf("silent corruptions: %v", out.SilentCorruptions)
	}
	if len(out.ReplayErrs) > 0 {
		t.Errorf("replay errors: %v", out.ReplayErrs)
	}
}

// TestDurableBaselineDecides: durable persistence alone (no faults) must not
// change the protocol outcome, and every replica must pass the
// byte-identical replay check.
func TestDurableBaselineDecides(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		out := durableScenario(seed, nil).Run()
		assertCleanRun(t, out)
		if !out.Decided {
			t.Fatalf("seed %d: durable baseline did not decide (%d steps)", seed, out.Steps)
		}
		if out.ReplayChecked != 4 {
			t.Errorf("seed %d: replay-checked %d of 4 replicas", seed, out.ReplayChecked)
		}
	}
}

// TestCleanKillRecoversFromDisk: a mid-append kill loses only the unreleased
// delivery; the replica replays its WAL, rejoins, and the run still decides
// with full safety.
func TestCleanKillRecoversFromDisk(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		out := durableScenario(seed, []StorageFault{
			{Proc: 0, Append: 5, Kind: StoreKill, Recover: 200},
			{Proc: 1, Append: 9, Kind: StoreTorn, Recover: 150},
		}).Run()
		assertCleanRun(t, out)
		if !out.Decided {
			t.Fatalf("seed %d: not decided after clean kills (%d steps)", seed, out.Steps)
		}
		if len(out.Quarantined) > 0 {
			t.Fatalf("seed %d: clean kills must never quarantine, got %v", seed, out.Quarantined)
		}
		n := CountEvents(out.Events)
		if n[EvKill] == 0 || n[EvTorn] == 0 {
			t.Fatalf("seed %d: kill/torn faults did not fire: %v", seed, n)
		}
		if n[EvReplay] == 0 {
			t.Fatalf("seed %d: no disk replay happened: %v", seed, n)
		}
	}
}

// TestCrashWindowRecoversFromDisk: the PR-1 step-scheduled crash window,
// under Durable, must reboot from the WAL (EvReplay), not from injector
// memory — and stay safe.
func TestCrashWindowRecoversFromDisk(t *testing.T) {
	sc := durableScenario(7, nil)
	sc.Plan.Crashes = []Crash{{Proc: 2, At: 40, Recover: 400}}
	out := sc.Run()
	assertCleanRun(t, out)
	if !out.Decided {
		t.Fatalf("not decided (%d steps)", out.Steps)
	}
	n := CountEvents(out.Events)
	if n[EvCrash] == 0 || n[EvReplay] == 0 {
		t.Fatalf("expected crash + disk replay, got %v", n)
	}
}

// oddKinds hands its process, before every delivery, a message whose kind
// is outside the name table: no decoder accepts its encoding, and the
// engine ignores it.
type oddKinds struct {
	network.Process
}

func (o oddKinds) Deliver(m network.Message, send network.Sender) {
	o.Process.Deliver(network.Message{From: 1, To: o.ID(), Kind: 200, Value: 1}, send)
	o.Process.Deliver(m, send)
}

func (o oddKinds) OnTick(step int, send network.Sender) {
	o.Process.(network.Ticker).OnTick(step, send)
}

// TestDurableOutOfTableKindRecovers: a durable replica delivered messages of
// an unnamed kind keeps them out of its WAL, so it recovers from disk after
// a crash window and its live state equals a fresh replay of its log.
func TestDurableOutOfTableKindRecovers(t *testing.T) {
	for _, proto := range []string{"dbft", "sba"} {
		sc := durableScenario(7, nil)
		sc.Protocol = proto
		sc.Plan.Crashes = []Crash{{Proc: 2, At: 40, Recover: 400}}
		sc.wrap = func(procs []network.Process) []network.Process {
			procs[2] = oddKinds{procs[2]}
			return procs
		}
		out := sc.Run()
		assertCleanRun(t, out)
		if len(out.Quarantined) > 0 {
			t.Fatalf("%s: quarantined %v: %v", proto, out.Quarantined, out.QuarantineReasons)
		}
		if n := CountEvents(out.Events); n[EvCrash] == 0 || n[EvReplay] == 0 {
			t.Fatalf("%s: expected crash + disk replay, got %v", proto, n)
		}
		if out.ReplayChecked != 4 {
			t.Errorf("%s: replay-checked %d of 4 replicas", proto, out.ReplayChecked)
		}
	}
}

// TestFlipNeverSilentlyAccepted: across many seeds, a bit flip either
// quarantines the replica (checksum caught it) or lands outside every
// accepted frame — silent acceptance is the one forbidden outcome.
func TestFlipNeverSilentlyAccepted(t *testing.T) {
	flips, quarantines := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		out := durableScenario(seed, []StorageFault{
			{Proc: 0, Append: 1 + int(seed)%20, Kind: StoreFlip, Recover: 5},
		}).Run()
		if out.Err != nil {
			t.Fatalf("seed %d: run error: %v", seed, out.Err)
		}
		if len(out.SilentCorruptions) > 0 {
			t.Fatalf("seed %d: silent corruption: %v", seed, out.SilentCorruptions)
		}
		if out.AgreementErr != nil || out.ValidityErr != nil {
			t.Fatalf("seed %d: safety: %v %v", seed, out.AgreementErr, out.ValidityErr)
		}
		n := CountEvents(out.Events)
		flips += n[EvFlip]
		quarantines += n[EvQuarantine]
	}
	if flips == 0 {
		t.Fatal("no flip fault ever fired")
	}
	if quarantines == 0 {
		t.Fatal("no flip was ever caught by a checksum (suspicious: corruption should usually be detected)")
	}
}

// TestNoSyncAmnesiaStaysSafe: a lying fsync erases released history; the
// replica is Byzantine-equivalent but the rest of the system must still
// agree and decide.
func TestNoSyncAmnesiaStaysSafe(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		out := durableScenario(seed, []StorageFault{
			{Proc: 0, Append: 4, Kind: StoreNoSync, Recover: 10, KillAfter: 3},
		}).Run()
		if out.Err != nil {
			t.Fatalf("seed %d: run error: %v", seed, out.Err)
		}
		if out.AgreementErr != nil || out.ValidityErr != nil {
			t.Fatalf("seed %d: safety among clean replicas: %v %v", seed, out.AgreementErr, out.ValidityErr)
		}
		if !out.Decided {
			t.Fatalf("seed %d: clean replicas did not decide (%d steps)", seed, out.Steps)
		}
	}
}

// TestStorageFaultNeverRecovers: Recover < 0 keeps the replica down forever;
// it must be treated like a crash-stop (excluded from termination) and the
// run must still decide.
func TestStorageFaultNeverRecovers(t *testing.T) {
	out := durableScenario(3, []StorageFault{
		{Proc: 0, Append: 3, Kind: StoreKill, Recover: -1},
	}).Run()
	if out.Err != nil {
		t.Fatalf("run error: %v", out.Err)
	}
	if out.AgreementErr != nil || out.ValidityErr != nil {
		t.Fatalf("safety: %v %v", out.AgreementErr, out.ValidityErr)
	}
	if !out.Decided {
		t.Fatalf("remaining replicas did not decide (%d steps)", out.Steps)
	}
}

// TestScenarioStorageJSONRoundTrip: storage faults survive the
// encode/parse replay loop.
func TestScenarioStorageJSONRoundTrip(t *testing.T) {
	sc := durableScenario(42, []StorageFault{
		{Proc: 1, Append: 7, Kind: StoreNoSync, Recover: 90, KillAfter: 2},
	})
	enc := sc.Encode()
	if !strings.Contains(enc, `"durable":true`) || !strings.Contains(enc, `"nosync"`) {
		t.Fatalf("encoding lost durable/storage fields: %s", enc)
	}
	back, err := ParseScenario(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Encode() != enc {
		t.Fatalf("round trip changed scenario:\n %s\n %s", enc, back.Encode())
	}
}

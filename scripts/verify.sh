#!/bin/sh
# verify.sh — the tier-1+ gate: everything tier-1 runs (build + tests) plus
# vet, a retired-name and a one-definition lint, the race detector,
# fixed-seed chaos and storage-torture smokes, and the WAL fsync-path
# benchmark. Deterministic and offline; the race-instrumented suite
# dominates (a few minutes).
set -eu

cd "$(dirname "$0")/.."

# fuzz_smoke runs each byte-facing protocol-kit decoder under the native
# fuzzer for 10 s, starting from the checked-in testdata/fuzz corpora: no
# panic, and decode ok => re-encode byte-identical; the message identity
# against the two string keys it replaced; and the cluster's packed-record,
# packed-context and journal-frame decoders (no minimizing there: shrinking
# each coverage-expanding mutant of a 2 KB shard would eat the ten seconds).
# `make fuzz-smoke` (or `verify.sh fuzz-smoke`) runs this leg alone.
fuzz_smoke() {
    echo "==> fuzz smoke (10 s per target: dbft and sba snapshots, shared message codec, message identity, cluster records / contexts / journal frames)"
    go test -run '^$' -fuzz '^FuzzSnapshotDecode$' -fuzztime 10s ./internal/dbft
    go test -run '^$' -fuzz '^FuzzSnapshotDecode$' -fuzztime 10s ./internal/sba
    go test -run '^$' -fuzz '^FuzzDecodeMessage$' -fuzztime 10s ./internal/protocol
    go test -run '^$' -fuzz '^FuzzMsgIdentity$' -fuzztime 10s ./internal/network
    for TARGET in FuzzUnpackRecords FuzzUnpackContexts FuzzJournalApply; do
        go test -run '^$' -fuzz "^$TARGET\$" -fuzztime 10s -fuzzminimizetime 0 ./internal/cluster
    done
}
if [ "${1:-}" = "fuzz-smoke" ]; then
    fuzz_smoke
    exit 0
fi

echo "==> gofmt check"
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: the following files need formatting:"
    echo "$UNFORMATTED"
    exit 1
fi

echo "==> go vet ./benchmark/... (every API the benchmark reads still has its name and signature)"
go vet ./benchmark/...

echo "==> go vet ./..."
go vet ./...

# The retired benchmark writers, async job routes and backend knob must not
# linger in docs or tooling (CHANGES.md, ROADMAP.md and benchmark/ keep them
# as history). Each pattern carries a bracket so this script does not match
# itself.
echo "==> retired-name lint (docs, Makefile, scripts/, .claude/)"
if grep -rnE 'BENCH[_][a-z]*\.json|load[g]en|cluster[b]ench|-bench[-]sim|/v1/[j]obs|[-]backend' \
    README.md DESIGN.md EXPERIMENTS.md Makefile scripts .claude; then
    echo "retired-name lint: the lines above still name a removed command, flag, route or artifact"
    exit 1
fi

# One definition each: the five solver counters are one struct, one package
# owns the CRC32C framing, and the merged full-mode internals stay merged
# (their names survive only in _test.go references and in CHANGES.md /
# ROADMAP.md as history). Bracketed like the lint above.
echo "==> one-definition lint (solver counters, crc32 framing, retired full-mode internals, enabled-rule predicate, message identity, model and row-storage callers, shard-record form)"
SRC=$(find cmd internal -name '*.go' ! -name '*_test.go')
N=$(grep -l 'json:"lp[_]checks"' $SRC | wc -l)
[ "$N" -eq 1 ] || { echo "one-definition lint: $N non-test files declare a json:\"lp[_]checks\" field, want 1"; exit 1; }
N=$(grep -l '"hash/crc[3]2"' $SRC | xargs -n1 dirname | sort -u | wc -l)
[ "$N" -eq 1 ] || { echo "one-definition lint: $N non-test packages import hash/crc[3]2, want 1"; exit 1; }
if grep -nE 'fresh[S]olves|split[F]rontier|solve[R]ec|full[O]utcome|decode[C]E' $SRC \
    README.md DESIGN.md EXPERIMENTS.md Makefile scripts/*.sh; then
    echo "one-definition lint: the lines above name a full-mode internal that was merged away"
    exit 1
fi

# "Rule enabled under an unlocked guard set" is decided in one place,
# analysis.ruleEnabled: the structural table, the encoder, the enumerator and
# the level fixpoint all call it, and the per-call loops it replaced live on
# only as the _test.go reference. A second non-test all-unlocked loop is a
# second definition.
N=$(cat $SRC | grep -cE '!unlocked(\[g[a-z]\]|\.has\(g[a-z]\))' || true)
[ "$N" -eq 1 ] || { echo "one-definition lint: $N non-test all-unlocked guard tests (the ruleGuards[i] loop), want 1 (analysis.ruleEnabled)"; exit 1; }
if grep -nE 'func .*(reach[U]nder|\) un[l]ockable)\(' $SRC; then
    echo "one-definition lint: the lines above re-grow a per-call loop the structural table replaced"
    exit 1
fi

# A message has one identity, network.MsgKey; the two string renderings it
# replaced live on only as the _test.go reference it is checked against.
if grep -nE 'Key[S]tring\(|key[S]tring\(' $SRC README.md DESIGN.md Makefile scripts/*.sh; then
    echo "one-definition lint: the lines above name a retired string message key (use network.Message.Key)"
    exit 1
fi

# A search node costs what it changes: a RatModel is built only where a model
# leaves the package (CheckRational), and only tableau.go reads or writes a
# row's idx/val storage, so copy-on-write ownership has one place to be wrong.
# The deep-copying clone, the math/big literal evaluator and the map-scanning
# fractional picks live on only as the _test.go references.
KERNEL=$(find internal/smt -name '*.go' ! -name '*_test.go')
N=$(cat $KERNEL | grep -c '\.model()' || true)
[ "$N" -eq 1 ] || { echo "one-definition lint: $N non-test callers of tableau.model(), want 1 (Solver.CheckRational)"; exit 1; }
if grep -nE '\.(idx|val)\b|holds[R]ational|deep[C]lone' $(echo "$KERNEL" | grep -v '/tableau\.go$'); then
    echo "one-definition lint: the lines above touch row storage outside tableau.go, or re-grow a per-node copy or model evaluation that lives on as a _test.go reference"
    exit 1
fi

# A shard's records have one serialized form, the packed bytes of
# internal/cluster/wire.go, on the wire, in the journal and in the worker's
# cache: the JSON-array form and its codec must not come back, and no
# non-test file of the package hands records to encoding/json.
CLUSTER=$(find internal/cluster -name '*.go' ! -name '*_test.go')
if grep -nE 'Wire[R]ecord|encode[R]ecords|decode[R]ecords' $SRC README.md DESIGN.md Makefile scripts/*.sh; then
    echo "one-definition lint: the lines above name the retired JSON-array record form (use packRecords / unpackRecords)"
    exit 1
fi
if grep -nE 'json\.(Marshal|Unmarshal|NewEncoder|NewDecoder)[^;]*\b(w?recs|packed|[Rr]ecords)\b' $CLUSTER; then
    echo "one-definition lint: the lines above pass shard records to encoding/json (they travel as packed bytes)"
    exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./internal/wal"
go test -race ./internal/wal

echo "==> go test -race -run 'Incremental|DeadSubtree' ./internal/smt ./internal/schema (incremental prefix-sharing, structural table vs its per-call reference, dead-subtree records and allocation gate; prune benchmark compiles and runs)"
go test -short -race -run 'Incremental|DeadSubtree' ./internal/smt ./internal/schema
go test -run '^$' -bench 'SolveRangePrune' -benchtime 1x ./internal/schema

echo "==> smt kernel leg (dense-reference pivots, rat vs math/big, pinned effort counters, copy-on-write ownership, basis readers vs their references, case-split allocation gate; rat fuzz; kernel benchmarks compile and run)"
go test -race -count=1 -run 'Dense|Rat|Effort|Clone|CaseSplit' ./internal/smt ./internal/schema
go test -run '^$' -fuzz FuzzRatOps -fuzztime 10s ./internal/smt
go test -run '^$' -bench 'Pivot|AddGE|TableauClone|PushCheckPop|CaseSplit' -benchtime 1x ./internal/smt

echo "==> go test -race ./internal/schema ./internal/core (parallel enumeration determinism)"
go test -race ./internal/schema ./internal/core

# The golden rows include native Partitions: 2 runs with a 16-key dupemap: an
# intern-table access that strays into a drain worker is a race here.
echo "==> go test -race event-bus leg (queues, dupemap, message identity, stalls, gossip, flat-vs-bus identity; simulator benchmarks compile and run)"
go test -race -run 'Bus|Native|Dupemap|Kadcast|Gossip|Stall|CopyOnEnqueue|Egress|QueueCap|Topic|Identity|KeyString|Allocs' ./internal/network
go test -short -race -run 'FingerprintsBusVsFlat|NativeFingerprint|Livelock|GoldenFingerprints|ObsCounters' ./internal/faults
go test -run '^$' -bench 'BusEnqueueDrain|DupemapAdd|MsgKey' -benchtime 1x ./internal/network
go test -run '^$' -bench 'SendTap|ScenarioRun' -benchtime 1x ./internal/faults

echo "==> cluster codec leg (packed records and contexts vs hand-written bytes, legacy journal refused, one fsync per acknowledged request; benchmarks compile and run)"
go test -race -count=1 -run 'Packed|Unpack|WireIdentity|LegacyJournal|AcknowledgedIsDurable|JournalErrors|Oversize|GracefulStop' ./internal/cluster
go test -run '^$' -bench 'ShardReport|ClaimContexts' -benchtime 1x ./internal/cluster

echo "==> go test -race ./..."
go test -race ./...

for PROTO in dbft sba; do
    echo "==> chaos smoke ($PROTO, fixed seed, 25 runs)"
    go run ./cmd/dbftsim -chaos -protocol "$PROTO" -chaos-seeds 25 -seed 1 -n 4 -t 1
done

echo "==> storage torture smoke (fixed seed, 10 runs)"
go run ./cmd/dbftsim -torture -torture-seeds 10 -seed 1 -n 4 -t 1

echo "==> sba front-end leg (race-clean units + cross-validation vs specs/sba.ta)"
go test -race ./internal/sba
go test -race -run 'SBA' ./internal/faults ./internal/models ./internal/reduction

fuzz_smoke

echo "==> sba replay smoke (seeded liar + crash-recovery scenario decides with agreement)"
SBADIR=$(mktemp -d)
printf '{"protocol":"sba","n":4,"t":1,"max_rounds":12,"max_steps":120000,"tick":25,"inputs":[0,1,1],"byz":["liar"],"sched":"random","plan":{"seed":3,"drops":[{"prob":0.1,"budget":2}],"dup_prob":0.05,"delay_prob":0.05,"delay_steps":20,"crashes":[{"proc":0,"at":40,"recover":400}]}}' > "$SBADIR/bus.json"
go run ./cmd/dbftsim -plan @"$SBADIR/bus.json" > "$SBADIR/bus.out"
grep -q 'decided=true' "$SBADIR/bus.out" || { echo "sba smoke: seeded run undecided"; cat "$SBADIR/bus.out"; exit 1; }
grep -q 'agreement: ok' "$SBADIR/bus.out" || { echo "sba smoke: agreement violated"; cat "$SBADIR/bus.out"; exit 1; }

echo "==> sba verification (staged determinism at -j 1 vs -j 8; full-mode incremental leg)"
go run ./cmd/holistic verify -model sba -j 1 -report "$SBADIR/sba1.json" > /dev/null
go run ./cmd/holistic verify -model sba -j 8 -report "$SBADIR/sba8.json" > /dev/null
go run ./cmd/obscheck "$SBADIR/sba1.json" "$SBADIR/sba8.json"
go run ./cmd/holistic verify -model sba -mode full -prop Quiet_0 > "$SBADIR/full.out"
go run ./cmd/holistic verify -model sba -mode full -prop Quiet_1 >> "$SBADIR/full.out"
[ "$(grep -c 'holds' "$SBADIR/full.out")" = "2" ] || {
    echo "sba verification: full-mode Quiet lemmas did not hold"; cat "$SBADIR/full.out"; exit 1
}
rm -rf "$SBADIR"

echo "==> simulator smoke (1k replicas, native drain; partitions 1 vs 2 byte-identity)"
SIMDIR=$(mktemp -d)
INPUTS=$(seq 1 1000 | awk '{printf "%s%d", (NR>1?",":""), NR%2}')
for P in 1 2; do
    printf '{"n":1000,"t":333,"max_rounds":12,"max_steps":40000,"tick":25,"inputs":[%s],"sched":"native","sim":{"queue_cap":4096,"dupemap":true,"stall_k":4000,"batch":8,"partitions":%d},"plan":{"seed":1,"drops":[{"prob":0.05,"budget":1}],"delay_prob":0.05,"delay_steps":16}}' \
        "$INPUTS" "$P" > "$SIMDIR/sim1k_p$P.json"
done
go run ./cmd/dbftsim -plan @"$SIMDIR/sim1k_p1.json" -fingerprint > "$SIMDIR/p1.out"
go run ./cmd/dbftsim -plan @"$SIMDIR/sim1k_p2.json" -fingerprint > "$SIMDIR/p2.out"
grep -q 'decided=true' "$SIMDIR/p1.out" || { echo "sim smoke: 1k-replica run undecided"; cat "$SIMDIR/p1.out"; exit 1; }
FP1=$(awk '/^fingerprint:/{print $2}' "$SIMDIR/p1.out")
FP2=$(awk '/^fingerprint:/{print $2}' "$SIMDIR/p2.out")
[ -n "$FP1" ] && [ "$FP1" = "$FP2" ] || {
    echo "sim smoke: native fingerprints diverge across partition counts (p1=$FP1 p2=$FP2)"
    exit 1
}
rm -rf "$SIMDIR"

echo "==> observability determinism (table2 -report at -j 1 vs -j 8)"
OBSDIR=$(mktemp -d)
trap 'rm -rf "$OBSDIR"' EXIT
go run ./cmd/holistic table2 -skip-naive -j 1 -report "$OBSDIR/r1.json" -trace "$OBSDIR/t1.jsonl" > /dev/null
go run ./cmd/holistic table2 -skip-naive -j 8 -report "$OBSDIR/r8.json" > /dev/null
go run ./cmd/obscheck -trace "$OBSDIR/t1.jsonl" "$OBSDIR/r1.json" "$OBSDIR/r8.json"

echo "==> service smoke (serve + verify -remote + cache semantics)"
SVC="$OBSDIR/svc"
mkdir -p "$SVC"
go build -o "$SVC/holistic" ./cmd/holistic
go build -o "$SVC/obscheck" ./cmd/obscheck
"$SVC/holistic" serve -addr 127.0.0.1:0 -addr-file "$SVC/addr" \
    -cache-dir "$SVC/cache" -report "$SVC/serve_report.json" 2> "$SVC/serve.log" &
SRV=$!
for _ in $(seq 1 100); do [ -s "$SVC/addr" ] && break; sleep 0.1; done
[ -s "$SVC/addr" ] || { echo "service smoke: daemon never bound"; cat "$SVC/serve.log"; exit 1; }
ADDR=$(head -n1 "$SVC/addr")
# Remote vs local: the deterministic report sections must be byte-identical.
"$SVC/holistic" verify -model simplified -report "$SVC/local.json" > /dev/null
"$SVC/holistic" verify -model simplified -remote "http://$ADDR" -report "$SVC/remote_cold.json" > "$SVC/cold.out"
"$SVC/obscheck" "$SVC/local.json" "$SVC/remote_cold.json"
grep -q '\[cached\]' "$SVC/cold.out" && { echo "service smoke: cold run claimed cache hits"; exit 1; }
# The warm repeat must be served from the cache and still byte-match.
"$SVC/holistic" verify -model simplified -remote "http://$ADDR" -report "$SVC/remote_warm.json" > "$SVC/warm.out"
grep -q '\[cached\]' "$SVC/warm.out" || { echo "service smoke: warm run not served from cache"; exit 1; }
"$SVC/obscheck" "$SVC/local.json" "$SVC/remote_warm.json"
# Graceful SIGTERM drain must flush a valid report.
kill -TERM "$SRV"
wait "$SRV" || { echo "service smoke: daemon exited non-zero on drain"; cat "$SVC/serve.log"; exit 1; }
"$SVC/obscheck" "$SVC/serve_report.json"
# Truncate every cache entry: a fresh daemon must detect the damage, log it,
# and re-verify rather than serve a torn verdict.
for f in "$SVC/cache"/*.vce; do
    head -c 21 "$f" > "$f.t" && mv "$f.t" "$f"
done
"$SVC/holistic" serve -addr 127.0.0.1:0 -addr-file "$SVC/addr2" -cache-dir "$SVC/cache" 2> "$SVC/serve2.log" &
SRV2=$!
for _ in $(seq 1 100); do [ -s "$SVC/addr2" ] && break; sleep 0.1; done
ADDR2=$(head -n1 "$SVC/addr2")
"$SVC/holistic" verify -model simplified -prop Inv2_0 -remote "http://$ADDR2" > "$SVC/corrupt.out"
grep -q '\[cached\]' "$SVC/corrupt.out" && { echo "service smoke: truncated entry served as a hit"; exit 1; }
grep -q 'corrupt entry' "$SVC/serve2.log" || { echo "service smoke: corruption not logged"; cat "$SVC/serve2.log"; exit 1; }
kill -TERM "$SRV2"
wait "$SRV2" || true

echo "==> cluster smoke (coordinator + 2 workers, SIGKILL one mid-run)"
CLU="$OBSDIR/cluster"
mkdir -p "$CLU"
# Single-box full-mode reference for the byte-identical assertion.
"$SVC/holistic" verify -model bv -mode full -j 2 -report "$CLU/local.json" > /dev/null
"$SVC/holistic" cluster -model bv -addr 127.0.0.1:0 -addr-file "$CLU/addr" \
    -lease 500ms -idle-local 1h -journal "$CLU/journal" \
    -report "$CLU/cluster.json" -stats > "$CLU/cluster.out" 2> "$CLU/cluster.log" &
CO=$!
for _ in $(seq 1 100); do [ -s "$CLU/addr" ] && break; sleep 0.1; done
[ -s "$CLU/addr" ] || { echo "cluster smoke: coordinator never bound"; cat "$CLU/cluster.log"; exit 1; }
CADDR=$(head -n1 "$CLU/addr")
"$SVC/holistic" work -coordinator "http://$CADDR" -id w1 -j 1 -quiet 2> /dev/null &
W1=$!
"$SVC/holistic" work -coordinator "http://$CADDR" -id w2 -j 1 -quiet 2> /dev/null &
W2=$!
# Let the pool claim leases, then SIGKILL one worker mid-run: its lease must
# expire and the shard reissue without disturbing the verdict.
sleep 1
kill -9 "$W1" 2> /dev/null || true
wait "$CO" || { echo "cluster smoke: coordinator failed"; cat "$CLU/cluster.log"; exit 1; }
kill "$W2" 2> /dev/null || true
# The cluster's deterministic report section must byte-match the local run.
"$SVC/obscheck" "$CLU/local.json" "$CLU/cluster.json"

echo "==> queue smoke (durable enqueue + SIGKILL mid-drain + resume + dead-letter)"
QUE="$OBSDIR/queue"
mkdir -p "$QUE"
# Synchronous reference: the report the drained queue must byte-match.
"$SVC/holistic" verify -model simplified -prop Inv1_0 -report "$QUE/sync.json" > /dev/null
# Daemon A: one consumer, fault injection dead-letters every Inv1_1 job.
"$SVC/holistic" serve -addr 127.0.0.1:0 -addr-file "$QUE/addr" -cache-dir "$QUE/cache" \
    -queue-dir "$QUE/queue" -queue-consumers 1 -queue-fail-prop Inv1_1 2> "$QUE/serveA.log" &
QA=$!
for _ in $(seq 1 100); do [ -s "$QUE/addr" ] && break; sleep 0.1; done
[ -s "$QUE/addr" ] || { echo "queue smoke: daemon A never bound"; cat "$QUE/serveA.log"; exit 1; }
QADDR=$(head -n1 "$QUE/addr")
# Eight distinct durable jobs plus one poison job; acks are fsync-backed.
for i in $(seq 1 8); do
    "$SVC/holistic" queue -url "http://$QADDR" -enqueue \
        -model simplified -prop Inv1_0 -tenant "t$((i % 3))" -tag "job$i" -force > /dev/null
done
"$SVC/holistic" queue -url "http://$QADDR" -enqueue \
    -model simplified -prop Inv1_1 -tenant poison -tag boom -force > /dev/null
# SIGKILL mid-drain: no drain hook runs; the journal is all that survives.
kill -9 "$QA" 2> /dev/null || true
wait "$QA" 2> /dev/null || true
# Daemon B on the same directories replays and finishes the backlog. The
# extra ninth job guarantees B serves at least one Inv1_0 verification even
# if A drained unusually fast, so its report deterministically has the row.
"$SVC/holistic" serve -addr 127.0.0.1:0 -addr-file "$QUE/addr2" -cache-dir "$QUE/cache" \
    -queue-dir "$QUE/queue" -queue-consumers 1 -queue-fail-prop Inv1_1 \
    -report "$QUE/daemon_report.json" 2> "$QUE/serveB.log" &
QB=$!
for _ in $(seq 1 100); do [ -s "$QUE/addr2" ] && break; sleep 0.1; done
[ -s "$QUE/addr2" ] || { echo "queue smoke: daemon B never bound"; cat "$QUE/serveB.log"; exit 1; }
QADDR2=$(head -n1 "$QUE/addr2")
"$SVC/holistic" queue -url "http://$QADDR2" -enqueue \
    -model simplified -prop Inv1_0 -tenant t0 -tag job9 -force > /dev/null
"$SVC/holistic" queue -url "http://$QADDR2" -wait-idle -timeout 120s > "$QUE/status.out"
# No job lost or forgotten: all nine Inv1_0 jobs done, the poison job dead.
grep -q 'done=9' "$QUE/status.out" || { echo "queue smoke: backlog not fully drained"; cat "$QUE/status.out"; exit 1; }
grep -q 'dead=1' "$QUE/status.out" || { echo "queue smoke: poison job not dead-lettered"; cat "$QUE/status.out"; exit 1; }
"$SVC/holistic" queue -url "http://$QADDR2" -dead > "$QUE/dead.out"
grep -q 'fault injection' "$QUE/dead.out" || { echo "queue smoke: dead letter lost its reason"; cat "$QUE/dead.out"; exit 1; }
kill -TERM "$QB"
wait "$QB" || { echo "queue smoke: daemon B exited non-zero on drain"; cat "$QUE/serveB.log"; exit 1; }
# Queue-drained verdicts must be byte-identical to the synchronous run.
"$SVC/obscheck" "$QUE/sync.json" "$QUE/daemon_report.json"

echo "==> WAL append benchmark (fsync-path cost)"
go test -run '^$' -bench BenchmarkWALAppend -benchmem ./internal/wal

echo "verify: OK"

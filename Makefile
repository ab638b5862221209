# Tier-1 gate (ROADMAP.md): build + tests.
.PHONY: test
test:
	go build ./...
	go test ./...

# Tier-1+ gate: gofmt + vet + race detector + fixed-seed chaos/torture
# smokes + the service smoke leg + the WAL fsync-path benchmark.
.PHONY: verify
verify:
	sh scripts/verify.sh

# The fuzz leg of verify alone: 10 s per decoder target (protocol kit, message
# identity, cluster records / contexts / journal frames).
.PHONY: fuzz-smoke
fuzz-smoke:
	sh scripts/verify.sh fuzz-smoke

# Formatting and static checks only (the fast subset of verify).
.PHONY: lint
lint:
	@UNFORMATTED=$$(gofmt -l .); \
	if [ -n "$$UNFORMATTED" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$UNFORMATTED"; \
		exit 1; \
	fi
	go vet ./...

.PHONY: bench
bench:
	go test -bench=. -benchmem ./...

# Simplex-kernel micro-benchmarks (pivot, addGE, one scope undone, one
# Push/Check/Pop cursor step, one whole lazy case-splitting search) on a
# 250 x 240 schema-shaped tableau; the before/after tables are in
# EXPERIMENTS.md.
.PHONY: bench-smt
bench-smt:
	go test -run '^$$' -bench 'Pivot|AddGE|ScopeUndo|PushCheckPop|CaseSplit' -benchmem -count 5 ./internal/smt

# Full-mode solve-loop benchmarks: the solver-bound prefix (incremental
# cursor vs the from-scratch reference), the prune-bound one (naive/Inv2_0,
# first 10,000 contexts, settled almost entirely from the structural table)
# and the solver-bound window the full_solve workload samples (naive/Inv1_0
# contexts [26800, 27400)); the before/after tables are in EXPERIMENTS.md.
.PHONY: bench-schema
bench-schema:
	go test -run '^$$' -bench 'PrefixSolveIncrementalVsFresh|SolveRangePrune|SolveRangeSolverBound' -benchmem -count 5 ./internal/schema

# Simulator benchmarks: message identity, dupemap add, one enqueue + drain
# through a 64-peer native bus (dupemap on and off), the fault plane's send
# tap under the benchmark's plan, and the two simulator workloads whole
# (BenchmarkScenarioRun, msgs/s, also the handle for profiling them); the
# before/after tables are in EXPERIMENTS.md.
.PHONY: bench-sim
bench-sim:
	go test -run '^$$' -bench 'BusEnqueueDrain|DupemapAdd|MsgKey' -benchmem -count 5 ./internal/network
	go test -run '^$$' -bench 'SendTap|ScenarioRun' -benchmem -count 5 ./internal/faults

# Cluster result-path micro-benchmarks: one shard from solver records to the
# journal (pack, report, unpack + certify, done append) for a 256-record
# pruned naive shard and for the toy counterexample shard, and one claim's
# contexts front-coded and decoded; B/op and bytes per shard. The before/after
# of the whole plane is the cluster_prune table in EXPERIMENTS.md.
.PHONY: bench-cluster
bench-cluster:
	go test -run '^$$' -bench 'ShardReport|ClaimContexts' -benchmem -count 5 ./internal/cluster

# Service warm-hit benchmarks: one in-process hit (memoized resolution, cache
# lookup, row, response) over the 33 bundled requests, and the same requests
# from two clients over loopback HTTP; the before/after table is in
# EXPERIMENTS.md.
.PHONY: bench-service
bench-service:
	go test -run '^$$' -bench 'WarmVerify|WarmHTTP' -benchmem -count 5 ./internal/service

# The repository's one benchmark (BENCHMARK.json): all six workloads,
# untraced then traced, every output checked against benchmark/expected.json,
# then compared row by row to the committed baseline. Reads benchmark/ and
# writes only under .bench_build/; about five minutes.
.PHONY: benchmark
benchmark:
	bash benchmark/run.sh
	bash benchmark/run.sh -compare benchmark/baseline.json .bench_build/benchmark.json

# Observability smoke: regenerate the fast Table 2 block with tracing and a
# metric report enabled, then validate both artifacts with obscheck.
.PHONY: trace-smoke
trace-smoke:
	rm -rf .trace-smoke && mkdir -p .trace-smoke
	go run ./cmd/holistic table2 -skip-naive -j 2 \
		-trace .trace-smoke/table2.jsonl -report .trace-smoke/table2.json
	go run ./cmd/obscheck -trace .trace-smoke/table2.jsonl .trace-smoke/table2.json
	rm -rf .trace-smoke

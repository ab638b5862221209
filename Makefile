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

# The fuzz leg of verify alone: 10 s per protocol-kit decoder target.
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

# Table 2 wall-clock at 1 worker vs all CPUs, with the cross-check that both
# runs produced identical verdicts and schema counts, plus the service
# cold-vs-warm benchmark, the cluster scaling curve that pushes the naive
# automaton past its single-box 100k-schema budget, and the simulator-scale
# sweep (event-bus native drain at 100..2000 replicas under seeded chaos).
# Writes BENCH_schema.json, BENCH_service.json, BENCH_cluster.json and
# BENCH_sim.json. The cluster leg solves >100k naive schemas for real, so it
# dominates the wall clock (tens of minutes on one CPU); trim with e.g.
# CLUSTERBENCH_FLAGS='-truncate 4000'. The sim leg's 2000-replica full-mesh
# row is the next heaviest (~4 minutes); trim with e.g.
# SIMBENCH_FLAGS='-bench-sizes 100,500'.
.PHONY: bench-baseline
bench-baseline:
	go run ./cmd/holistic bench -out BENCH_schema.json
	go run ./cmd/holistic loadgen -queue-jobs 100000 -out BENCH_service.json
	go run ./cmd/holistic clusterbench $(CLUSTERBENCH_FLAGS) -out BENCH_cluster.json
	go run ./cmd/dbftsim -bench-sim $(SIMBENCH_FLAGS) -bench-out BENCH_sim.json

# Observability smoke: regenerate the fast Table 2 block with tracing and a
# metric report enabled, then validate both artifacts with obscheck.
.PHONY: trace-smoke
trace-smoke:
	rm -rf .trace-smoke && mkdir -p .trace-smoke
	go run ./cmd/holistic table2 -skip-naive -j 2 \
		-trace .trace-smoke/table2.jsonl -report .trace-smoke/table2.json
	go run ./cmd/obscheck -trace .trace-smoke/table2.jsonl .trace-smoke/table2.json
	rm -rf .trace-smoke

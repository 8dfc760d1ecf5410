GO ?= go

.PHONY: check build test vet race fuzz-smoke bench bench-engine bench-smoke bench-backend bench-backend-smoke serve-smoke chaos-smoke metrics-smoke refresh-smoke tune-smoke sdc-smoke cluster-smoke bench-cluster bench-sdc bench-refresh bench-tune clean

## check: vet + build + race-enabled tests + a short fuzz of the wire decoders
## (the pre-merge gate)
check: vet build race fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## fuzz-smoke: ten seconds of native Go fuzzing per wire decoder, each held to
## encoding/json on the same struct (seed corpus in
## internal/serve/testdata/fuzz; a finding lands there as a new file)
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSolveRequest$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeUpdateRequest$$' -fuzztime 10s ./internal/serve

## bench: regenerate every table and figure of the evaluation section
bench:
	$(GO) run ./cmd/benchsuite -experiment all

## bench-engine: measure the host-parallel engine (Table VIII) and emit the
## BENCH_engine.json artifact (serial vs parallel wall time, speedup,
## allocs/op, bit-identity check)
bench-engine:
	$(GO) run ./cmd/benchsuite -experiment engine -json BENCH_engine.json

## bench-smoke: one quick iteration of the engine microbenchmarks (the CI
## guard that the superstep hot path stays allocation-free and race-clean)
bench-smoke:
	$(GO) test -short -run '^$$' -bench 'BenchmarkEngine' -benchtime 1x -benchmem .

## bench-backend: measure sim vs native execution backends (Table X) and emit
## the BENCH_backend.json artifact (warm CG latency, speedup, allocs/op,
## residual agreement)
bench-backend:
	$(GO) run ./cmd/benchsuite -experiment backend -json BENCH_backend.json

## bench-backend-smoke: one quick iteration of the backend and native-kernel
## microbenchmarks plus the zero-alloc gate on the default hierarchy (the CI
## guard that warm SolveInto stays allocation-free on both backends), the
## fused-vs-plain stream equivalence property and the FusedSets gate (the
## guards that the native fusions stay bit-identical and stay on), and the
## kernel-vs-codelet property with its packed-sweep order checks (the guard
## behind the ilu0-apply and dilu-apply rows the first line runs)
bench-backend-smoke:
	$(GO) test -short -run 'TestNativeMPIRZeroAlloc' -bench 'BenchmarkBackend|BenchmarkNativeKernels' -benchtime 1x -benchmem .
	$(GO) test -short -run 'TestFusedStreamMatchesPlain|TestNativeKernelsMatchCodelets' ./internal/solver
	$(GO) test -short -run 'TestNativeFusedSets' ./internal/core

## serve-smoke: boot a race-enabled ipuserved on a random port, register a
## Poisson system, fire concurrent batched solves, verify solutions and
## cache stats, then drain it gracefully
serve-smoke:
	$(GO) run ./cmd/servesmoke

## chaos-smoke: the serve smoke plus a seeded chaos campaign (replica
## crashes, stalls, breakdown storms, host errors) and a kill -9/restart
## phase -- zero wrong answers, >=99% availability, WAL-recovered state
chaos-smoke:
	$(GO) run ./cmd/servesmoke -chaos

## metrics-smoke: boot a race-enabled ipuserved, drive one solve, scrape
## GET /metrics and assert the Prometheus exposition carries the key series
## of every layer (serve latency histogram, cache counters, breaker gauge,
## core/engine/machine/solver series)
metrics-smoke:
	$(GO) run ./cmd/servesmoke -metrics

## refresh-smoke: drive the values-only streaming path against a
## race-enabled ipuserved -- register once, step PATCH /v1/systems/{id}
## value drifts that keep the ID stable while incrementing the values
## generation and refreshing the warm prepared pipelines in place, verify
## every step's solve exactly and require prepared_refresh_total on /metrics
## to advance with only one cold prepare
refresh-smoke:
	$(GO) run ./cmd/servesmoke -refresh

## tune-smoke: the autotuner persistence gate -- register under -tune
## against a crash-safe ipuserved, require the race decision at
## GET /v1/systems/{id}/tune with tune_races_total >= 1, kill -9, and
## require the restarted process to recover the decision from the WAL
## without re-racing
tune-smoke:
	$(GO) run ./cmd/servesmoke -tune

## sdc-smoke: the silent-data-corruption gate -- sweep seeded bit-flip and
## exchange-corruption campaigns over ABFT-armed solves on both backends and
## verify every claimed-converged answer against an independent float64 host
## oracle; one silently wrong answer fails the build
sdc-smoke:
	$(GO) run ./cmd/sdcsmoke
	$(GO) run ./cmd/sdcsmoke -backend sim

## cluster-smoke: boot three race-enabled ipuserved shards behind a
## race-enabled ipurouterd (replica factor 2), register through the router,
## kill -9 a replica-holding shard under sustained load and restart it
## empty -- >=99% availability, every answer residual-verified, reconciler
## repairs placement, graceful drain with zero failed in-flight requests
cluster-smoke:
	$(GO) run ./cmd/clustersmoke

## bench-cluster: the availability-under-shard-loss study (Table IX) on an
## in-process cluster: replica factor 1 vs 2 vs 3 around a cold shard kill
bench-cluster:
	$(GO) run ./cmd/benchsuite -experiment cluster

## bench-sdc: the silent-data-corruption study (Table XI) and its
## BENCH_sdc.json artifact: ABFT-on vs ABFT-off warm CG latency on both
## backends plus seeded corruption campaigns classified by outcome
bench-sdc:
	$(GO) run ./cmd/benchsuite -experiment sdc -json BENCH_sdc.json

## bench-refresh: the values-only refresh amortization study (Table XII) and
## its BENCH_refresh.json artifact: cold Prepare+Solve vs warm
## UpdateValues+Solve per streaming step on both backends
bench-refresh:
	$(GO) run ./cmd/benchsuite -experiment refresh -json BENCH_refresh.json

## bench-tune: the autotuning study (Table XIII) and its BENCH_tune.json
## artifact: static default vs raced winner per serving profile, including
## the misconfigured sim-pinned profile the tuner repairs
bench-tune:
	$(GO) run ./cmd/benchsuite -experiment tune -json BENCH_tune.json

clean:
	$(GO) clean ./...

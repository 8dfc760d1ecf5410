GO ?= go

.PHONY: check build test vet race fuzz-smoke bench bench-backend-smoke serve-smoke sdc-smoke bench-sdc bench-tune loc clean

## check: vet + build + race-enabled tests in shuffled order + a short fuzz of
## the wire decoders and the Matrix Market reader (the pre-merge gate; a
## shuffled failure prints its -shuffle seed, which replays the order)
check: vet build race fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

## fuzz-smoke: ten seconds of native Go fuzzing per target: each wire decoder
## held to encoding/json on the same struct, and the Matrix Market reader held
## to "a valid matrix or an error" (seed corpora in internal/{serve,sparse}/
## testdata/fuzz; a finding lands there as a new file)
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSolveRequest$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeUpdateRequest$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzReadMatrixMarket$$' -fuzztime 10s ./internal/sparse

## bench: regenerate every table and figure of the evaluation section
bench:
	$(GO) run ./cmd/benchsuite -experiment all

## bench-backend-smoke: one quick iteration of the native-kernel
## microbenchmarks and of BenchmarkPrepare (a cold native Prepare of the
## serve-cg and serve-mpir shapes, whose allocs/op every CI log shows), plus
## the zero-alloc gate on the default hierarchy (the CI guard that warm
## native SolveInto stays allocation-free), the
## fused-vs-plain stream equivalence property and the FusedSets gate (the
## guards that the native fusions stay bit-identical and stay on; both
## properties fail unless their generator ran every run-specialised SpMV row
## body and the generic row loop), the SpMV run table's contract, the
## kernel property with its packed-sweep order checks and its oracles (the
## per-worker SpMV and DW/F64 residual row loops and the natural-order
## sweeps: the guard behind the ilu0-apply and dilu-apply rows the first
## line runs, and behind the kernels the simulator runs for its billed
## sets), the schedule digest of every solver method with Recovery and ABFT
## off and on and of the default MPIR hierarchy (the guard that the shared
## iteration driver schedules each method's program step for step), the
## engine's billed-set, exchange-replay and zero-alloc tests, the
## guard that native and simulated runs walk one stream identically (control
## flow and injector consultation order), the sim-cold exact counts and bits,
## the warm default hierarchy's bits on both backends (one digest per case
## over x, iterations and relRes), MPIR's inner stopping rule and its
## convergence property (correction solves stop at max(16u, ½·τ/ρ)), the
## ABFT-armed default hierarchy's zero detections and the paper golden file,
## without -race; then the bit-identity tests once more built for GOAMD64=v3
## (the level at which Go could fuse x*y+z into an FMA: the double-word and
## fused loops must leave the same bits at every amd64 level; needs a host
## with AVX2 and FMA)
bench-backend-smoke:
	$(GO) test -short -run 'TestNativeMPIRZeroAlloc' -bench 'BenchmarkNativeKernels|BenchmarkPrepare' -benchtime 1x -benchmem .
	$(GO) test -short -run 'TestFusedStreamMatchesPlain|TestNativeKernelsMatchCodelets|TestCorrectionTol|TestSolverScheduleDigest' ./internal/solver
	$(GO) test -short -run 'TestBilledSet|TestValidateBilledSets|TestExchangeBillReplayed|TestEngineSuperstepZeroAlloc|TestRowRuns|TestNativeControlFlowMatchesEngine|TestNativeInjectorConsultationOrder' ./internal/graph
	$(GO) test -short -run 'TestNativeFusedSets|TestSimColdCountsExact|TestNativeMPIRDigest|TestMPIRConverges|TestABFTMPIRCorrectionsVerifyOnce' ./internal/core
	$(GO) test -short -run 'TestPaperGolden' ./internal/bench
	GOAMD64=v3 $(GO) test -short -run 'TestNativeKernelsMatchCodelets|TestFusedStreamMatchesPlain|TestNativeMPIRDigest|TestSimColdCountsExact|TestPaperGolden' ./internal/solver ./internal/core ./internal/bench

## serve-smoke: build one race-enabled ipuserved (and, for the cluster phase,
## one ipurouterd) and drive the servesmoke phases named by PHASES against
## them (default all; e.g. PHASES=serve,restart or PHASES=cluster):
##   serve    register a Poisson system, concurrent batched solves, every
##            solution and the cache stats verified, graceful drain
##   restart  kill -9 a crash-safe server and require the WAL-recovered system
##            to serve a bit-identical warm solve
##   chaos    a seeded service-level campaign (replica crashes, stalls,
##            breakdown storms, host errors) and a device-level one on both
##            backends -- zero wrong answers, >=99% availability
##   metrics  GET /metrics carries the key series of every layer
##   refresh  PATCH /v1/systems/{id} value drifts keep the ID, bump the
##            generation and refresh the warm pipelines with one cold prepare
##   tune     the autotuner's race decision survives kill -9 without re-racing
##   cluster  three shards behind ipurouterd (replica factor 2): placement,
##            kill -9 of a replica holder under load (>=99% availability,
##            reconciler repairs placement), drain with zero failed
##            in-flight requests, the router's cluster_* /metrics series
PHASES ?= all
serve-smoke:
	$(GO) run ./cmd/servesmoke -phases $(PHASES)

## sdc-smoke: the silent-data-corruption gate -- sweep seeded bit-flip and
## exchange-corruption campaigns over ABFT-armed solves on both backends and
## verify every claimed-converged answer against an independent float64 host
## oracle; one silently wrong answer fails the build
sdc-smoke:
	$(GO) run ./cmd/sdcsmoke
	$(GO) run ./cmd/sdcsmoke -backend sim

## bench-sdc: the silent-data-corruption study (Table XI) and its
## BENCH_sdc.json artifact: ABFT-on vs ABFT-off warm CG latency on both
## backends plus seeded corruption campaigns classified by outcome
bench-sdc:
	$(GO) run ./cmd/benchsuite -experiment sdc -json BENCH_sdc.json

## bench-tune: the autotuning study (Table XIII) and its BENCH_tune.json
## artifact: static default vs raced winner per serving profile, including
## the misconfigured sim-pinned profile the tuner repairs
bench-tune:
	$(GO) run ./cmd/benchsuite -experiment tune -json BENCH_tune.json

## loc: the line counts every CHANGES.md entry reports -- non-test Go lines
## outside benchmark/, test lines -- and the distance of the first to the
## 24,471-line target
loc:
	@src=$$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l); \
	tests=$$(find . -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l); \
	echo "non-test Go lines outside benchmark/: $$src"; \
	echo "test lines: $$tests"; \
	echo "distance to 24471: $$((src - 24471))"

clean:
	$(GO) clean ./...

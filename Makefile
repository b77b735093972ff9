# swcam — build/test/reproduce targets. Stdlib-only Go; no network needed.

GO ?= go

.PHONY: all build vet test race fuzz bench kernel-parity scaling trace figures outputs serve loadgen clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Native fuzzing, 30s per target on top of the checked-in seed corpora:
# every untrusted-bytes decoder (checkpoint, history, buddy-snapshot wire
# payloads), and the np=4 operator encodings held bit for bit to the
# generic loop on arbitrary float64 inputs.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzReadHistory$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzDecodeRankSnapshot$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dycore/ -run '^$$' -fuzz '^FuzzNp4Slabs$$' -fuzztime $(FUZZTIME)

# The reference benchmark (BENCHMARK.json): six frozen fault-free
# workloads on both clocks, with the in-run correctness gate. Compare a
# change against its parent commit on the same box. (The root
# `go test -bench` benchmarks of the simulator experiments run under
# `make outputs`.)
bench:
	$(GO) run ./benchmark

# Kernel Cost parity: the lowered-kernel differential tests, the full
# compute_and_apply_rhs Cost golden on all three backends (Intel,
# OpenACC, Athread; the MPE is a price on the Intel run, not a
# backend), the column scan collective against its point-to-point
# oracle, and the three-backend golden, which re-runs the flip-chaos
# configuration recorded in bench/BENCH_9.json on every backend and
# requires every per-kernel calls/flops/bytes column to match it
# exactly, every injected flip to be detected, and the recovered state
# to hash equal to a fault-free replica's. Mirrors the CI kernel-parity
# job.
kernel-parity:
	$(GO) test -race -count=1 \
	    -run 'TestLoweredKernel|TestHypervisUpdateFlopParity|TestAthreadDP2VectorCounters|TestAnalyticFormulasDerivedFromSpecs|TestRowLevelsEdgeCases|TestRHSCostGoldens|TestColumnScanBatchMatchesChain|TestColumnScanCollectiveFaults|TestBench9ConfigGoldens' \
	    ./internal/exec/ ./internal/core/ ./internal/sw/

# The measured scaling campaign (internal/scale): real weak+strong
# goroutine-rank sweeps on this box up to 256 ranks, the calibrated
# cost-model fit, and the full-machine SYPD-vs-resolution
# extrapolation table, printed to stdout.
scaling:
	$(GO) run ./cmd/scaling -mode calibrate -ne 8 -min-np 16 -max-np 256 \
	    -backend athread

# A Chrome trace of a two-rank Athread run on a small configuration;
# load swcam.trace.json in chrome://tracing or ui.perfetto.dev.
trace:
	$(GO) run ./cmd/camsw -ne 2 -nlev 4 -hours 0.5 -physics none -parallel 2 \
	    -backend athread -trace swcam.trace.json

# The ensemble forecast service under fire: three perturbed members,
# seeded member kills and a chaos fault plan, so the degradation paths
# (supervised restart, stale serving, subensemble fallback) are live
# from the first minute. SIGTERM drains gracefully.
# members reach the 120-cycle forecast horizon, complete, and keep
# serving their final snapshot (toy resolutions cannot free-run
# forever; see DESIGN.md §12).
serve:
	$(GO) run ./cmd/swserve -addr 127.0.0.1:8090 -members 3 \
	    -ranks 2 -cycle-steps 2 -backend athread -horizon-cycles 120 \
	    -kills '1@4,2@7' -faults 'chaos:2@42'

# Seeded closed-loop load against a running `make serve`: prints the
# latency percentiles and status histogram.
loadgen:
	$(GO) run ./cmd/swload -addr http://127.0.0.1:8090 -duration 15s \
	    -workers 4 -seed 7

# Print every table and figure of the paper's evaluation, then the
# ledger of every paper number the model reproduces.
figures:
	$(GO) run ./cmd/benchtab -all

# The capture the repository ships with: the test log (the ledger test
# included) in test_output.txt, and the benchmarks — the simulator
# experiments (Table 1 kernels, Figs 4 and 9, ablations) and every
# package's micro-benchmarks — in bench_output.txt. The paper's numbers
# are the ledger, printed by `make figures`.
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt swcam.trace.json

# swcam — build/test/reproduce targets. Stdlib-only Go; no network needed.

GO ?= go

.PHONY: all build vet test race fuzz bench bench-tiled bench-overlap bench-phys bench-integrity kernel-parity scaling trace figures outputs serve loadgen clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Native fuzzing over every untrusted-bytes decoder (checkpoint,
# history, BENCH json, buddy-snapshot wire payloads), 30s each on top
# of the checked-in seed corpora.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzReadHistory$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs/ -run '^$$' -fuzz '^FuzzDecodeBench$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzDecodeRankSnapshot$$' -fuzztime $(FUZZTIME)

# The reference benchmark (BENCHMARK.json): six frozen fault-free
# workloads on both clocks, with the in-run correctness gate. Compare a
# change against its parent commit on the same box. (The per-figure
# `go test -bench` benchmarks run under `make outputs`; the profiler's
# BENCH_<n>.json points under the bench-* targets below.)
bench:
	$(GO) run ./benchmark

# The serial/tiled BENCH pair: two regression points with identical
# model configuration differing only in -dyn-workers, so the speedup
# reads directly off consecutive BENCH_<n>.json wall_seconds.
bench-tiled:
	$(GO) run ./cmd/swprof -ne 4 -nlev 8 -steps 5 -ranks 2 -dyn-workers 1 -dir bench
	$(GO) run ./cmd/swprof -ne 4 -nlev 8 -steps 5 -ranks 2 -dyn-workers 4 -dir bench

# The original/overlap BENCH pair (§7.6): identical configuration, the
# first run under the blocking exchange, the second under the
# boundary-first redesign with the measured per-backend overlap_ratio
# recorded (and required to be > 0).
bench-overlap:
	$(GO) run ./cmd/swprof -ne 4 -nlev 8 -steps 5 -ranks 4 -overlap=false -dir bench
	$(GO) run ./cmd/swprof -ne 4 -nlev 8 -steps 5 -ranks 4 -require-overlap -dir bench

# The parallel-physics BENCH point: moist physics on the work-stealing
# column pool, recording the steal ledger, per-worker utilization, and
# a paired serial-vs-parallel physics SYPD measurement in the phys
# block (results are bit-identical for any -phys-workers value).
bench-phys:
	$(GO) run ./cmd/swprof -ne 3 -nlev 8 -steps 6 -ranks 2 \
	    -physics moist -phys-every 2 -phys-workers 4 -dir bench

# The integrity BENCH point: seeded bit flips into resident state,
# checkpoints, and buddy copies, with per-step CRC scrubbing, the
# conservation ledgers, and a 3-generation verified checkpoint ring.
# swprof exits nonzero unless every flip is detected and the recovered
# trajectory is bit-identical to fault-free; the integrity block
# records detections vs injected and the measured scrub overhead.
bench-integrity:
	$(GO) run ./cmd/swprof -ne 2 -nlev 4 -steps 6 -ranks 3 \
	    -faults 'chaosflip:6@42' -recovery ladder \
	    -scrub-every 1 -ckpt-generations 3 -dir bench

# Kernel Cost parity: re-run the BENCH_9 configuration on the
# single-source lowered kernels and diff every per-backend kernel Cost
# column (calls, flops, bytes) — exact against the landed
# bench/BENCH_9.json, and against the pre-fix bench/BENCH_8.json with
# the one documented exemption for the hypervis_dp2 flop re-derivation.
# Mirrors the CI kernel-parity job.
kernel-parity:
	$(GO) test -race -count=1 \
	    -run 'TestLoweredKernel|TestHypervisUpdateFlopParity|TestAthreadDP2VectorCounters|TestAnalyticFormulasDerivedFromSpecs|TestRowLevelsEdgeCases' \
	    ./internal/exec/
	mkdir -p parity-out
	$(GO) run ./cmd/swprof -ne 2 -nlev 4 -steps 6 -ranks 3 \
	    -faults 'chaosflip:6@42' -recovery ladder \
	    -scrub-every 1 -ckpt-generations 3 -dir parity-out
	$(GO) run ./cmd/benchtab -parity parity-out/BENCH_1.json -against bench/BENCH_9.json
	$(GO) run ./cmd/benchtab -parity parity-out/BENCH_1.json \
	    -against bench/BENCH_8.json -allow-flops hypervis_dp2

# The measured scaling campaign (internal/scale): real weak+strong
# goroutine-rank sweeps on this box up to 256 ranks, the calibrated
# cost-model fit, and the full-machine SYPD-vs-resolution
# extrapolation table, appended to bench/ as a BENCH `scaling` block.
scaling:
	$(GO) run ./cmd/scaling -mode calibrate -ne 8 -min-np 16 -max-np 256 \
	    -backend athread -dir bench

# A Chrome trace of all four backends on a small configuration; load
# swcam.trace.json in chrome://tracing or ui.perfetto.dev.
trace:
	$(GO) run ./cmd/swprof -ne 2 -nlev 4 -steps 5 -ranks 2 -dir . -trace swcam.trace.json

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
# latency percentiles and status histogram, and appends a BENCH file
# with the `serving` block to bench/.
loadgen:
	$(GO) run ./cmd/swload -addr http://127.0.0.1:8090 -duration 15s \
	    -workers 4 -seed 7 -bench-dir bench

# Print every table and figure of the paper's evaluation.
figures:
	$(GO) run ./cmd/benchtab -all

# The capture the repository ships with (test_output.txt, bench_output.txt).
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt swcam.trace.json BENCH_*.json

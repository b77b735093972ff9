package core

import (
	"io"
	"testing"

	"swcam/internal/dycore"
	"swcam/internal/exec"
)

// Micro-benchmarks of the checkpoint path, on the reference benchmark's
// shape: ne4/L8/qsize 1 over 4 ranks, so one rank state is 24 elements
// (about 123 KiB of field values).
//
//	go test -run '^$' -bench 'Snapshot|WriteCheckpoint|TakeCheckpoint' -benchmem ./internal/core

// benchLadderJob builds the supervised job of the `supervised` workload
// (ladder, integrity on, ring of 3) and its scattered initial state.
func benchLadderJob(tb testing.TB) (*ResilientJob, []*dycore.State) {
	tb.Helper()
	cfg := testDycoreCfg(4, 8, 1)
	s, err := dycore.NewSolver(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	g := s.NewState()
	s.InitBaroclinicWave(g)
	s.InitCosineBellTracer(g, 0, 1, 0, 0.5)
	job, err := NewParallelJob(cfg, exec.Intel, true, 4)
	if err != nil {
		tb.Fatal(err)
	}
	job.EnableIntegrity(1)
	rj := NewResilientJob(job)
	rj.Mode = ModeLadder
	rj.Generations = 3
	local := job.Scatter(g)
	rj.local = local
	return rj, local
}

func benchRankState(b *testing.B) *dycore.State {
	_, local := benchLadderJob(b)
	st := local[0]
	b.SetBytes(int64(headerOf(st, 0).encodedBytes()))
	return st
}

var (
	snapshotSink []float64
	stateSink    *dycore.State
)

func BenchmarkEncodeRankSnapshot(b *testing.B) {
	st := benchRankState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := EncodeRankSnapshot(st, i)
		if err != nil {
			b.Fatal(err)
		}
		snapshotSink = enc
	}
}

func BenchmarkVerifyRankSnapshot(b *testing.B) {
	enc, err := EncodeRankSnapshot(benchRankState(b), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyRankSnapshot(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRankSnapshot(b *testing.B) {
	enc, err := EncodeRankSnapshot(benchRankState(b), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, err := DecodeRankSnapshot(enc)
		if err != nil {
			b.Fatal(err)
		}
		stateSink = st
	}
}

func BenchmarkWriteCheckpoint(b *testing.B) {
	st := benchRankState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteCheckpoint(io.Discard, st, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTakeCheckpointLadder is one whole checkpoint of the
// supervised workload: capture and seal 4 rank states, encode, verify,
// ship to the buddies, push onto a full ring of 3 and audit the evicted
// generation.
func BenchmarkTakeCheckpointLadder(b *testing.B) {
	rj, _ := benchLadderJob(b)
	var rs ResilientStats
	for i := 0; i < 4; i++ { // fill the ring, warm the pools
		if err := rj.takeCheckpoint(&rs, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rj.takeCheckpoint(&rs, 4+i); err != nil {
			b.Fatal(err)
		}
	}
}

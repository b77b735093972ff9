package core

import (
	"fmt"
	"math"
	"time"

	"swcam/internal/dycore"
	"swcam/internal/integrity"
	"swcam/internal/mpirt"
)

// The multi-generation verified checkpoint store. ResilientJob retains
// up to Generations checkpoint generations in a newest-first ring; a
// restore re-verifies its target — every rank's own copy against its
// CRC-32C seal, buddy replicas by the in-place snapshot check — before a
// single bit is copied back, heals a rotten own copy from the buddy's
// replica when that replica still verifies, and escalates to the
// next-older generation when a generation has no usable copy of some
// rank. A generation leaving service (evicted past the retention cap,
// dropped as poisoned, or surviving to end of run) is audited once, so
// every injected checkpoint-copy flip produces at least one detection
// even when no restore ever consulted it.
//
// The ring recycles its memory: a generation evicted past the cap is
// audited and then hands its storage to the next capture, which copies
// into it (capture) instead of allocating. What is recycled is storage,
// never a generation: every capture is a new *ckptGeneration with every
// replica cleared, and a replica becomes visible again (buddy[r]) only
// once this generation's ship of it has been received whole.

// genStorage is the memory one generation occupies, every slice indexed
// by rank.
type genStorage struct {
	own   []*dycore.State       // own snapshots ("node-local memory")
	seals []*integrity.RankSeal // seals over own; entries nil when scrubbing is off
	buddy [][]float64           // buddy[r] = encoded copy of rank r held by rank (r+1)%n; nil = no replica (always, in global mode)
	store [][]float64           // the buffers buddy replicas are received into; buddy[r], when set, is store[r]
}

// ckptGeneration is one retained checkpoint generation.
type ckptGeneration struct {
	step    int
	precip  float64 // TotalPrecip at capture (rewound with the step counter)
	audited bool    // end-of-life audit already ran
	genStorage
}

// capture starts a generation at step: the supervised states copied
// into the storage the last retired generation left behind — allocated
// only where there is none, or where its shape is not this rank's
// (first captures, a copy a poisoning dropped) — and sealed when
// scrubbing is on. Every replica starts cleared, whatever the storage
// held before.
func (rj *ResilientJob) capture(step int) *ckptGeneration {
	n := len(rj.local)
	g := &ckptGeneration{step: step, precip: rj.Job.TotalPrecip, genStorage: rj.spare}
	rj.spare = genStorage{}
	if len(g.own) != n {
		g.genStorage = genStorage{
			own:   make([]*dycore.State, n),
			seals: make([]*integrity.RankSeal, n),
			buddy: make([][]float64, n),
			store: make([][]float64, n),
		}
	}
	clear(g.buddy)
	for r, st := range rj.local {
		if own := g.own[r]; own != nil && own.SameShape(st) {
			own.CopyFrom(st)
		} else {
			g.own[r], g.seals[r] = st.Clone(), nil
		}
	}
	if rj.Job.ScrubEvery <= 0 {
		clear(g.seals)
		return g
	}
	t0 := time.Now()
	for r, st := range g.own {
		if g.seals[r] == nil {
			g.seals[r] = integrity.SealState(st, step)
		} else {
			g.seals[r].Reseal(st, step)
		}
	}
	reg := rj.Job.Obs.R()
	reg.Counter("integrity.scrub.seals").Add(int64(n))
	reg.Counter("integrity.scrub.ns").Add(time.Since(t0).Nanoseconds())
	return g
}

// retire takes the storage of a generation that has left service — or
// of a capture that failed part-way — for the next capture, and leaves
// g empty.
func (rj *ResilientJob) retire(g *ckptGeneration) {
	rj.spare, g.genStorage = g.genStorage, genStorage{}
}

// genCap returns the retention cap with its default of one generation
// (the historical single-checkpoint behavior).
func (rj *ResilientJob) genCap() int {
	if rj.Generations < 1 {
		return 1
	}
	return rj.Generations
}

// checkpointStep is the step of the active restore target, falling back
// to the disk checkpoint's when the ring is empty (diagnostics).
func (rj *ResilientJob) checkpointStep() int {
	if len(rj.gens) > 0 {
		return rj.gens[0].step
	}
	return rj.diskStep
}

// pushGeneration prepends g as the newest restore target, evicting —
// audit-verifying, then recycling — generations beyond the retention
// cap.
func (rj *ResilientJob) pushGeneration(rs *ResilientStats, g *ckptGeneration) {
	rj.gens = append(rj.gens, nil)
	copy(rj.gens[1:], rj.gens)
	rj.gens[0] = g
	for len(rj.gens) > rj.genCap() {
		old := rj.gens[len(rj.gens)-1]
		rj.gens = rj.gens[:len(rj.gens)-1]
		rj.auditGeneration(rs, old)
		rj.retire(old)
	}
}

// markPoisoned records one verified-bad checkpoint copy: a detection.
func (rj *ResilientJob) markPoisoned(rs *ResilientStats, g *ckptGeneration, rank int, err error) {
	rs.Poisoned++
	rj.Job.Obs.R().Counter("integrity.gen.poisoned").Add(1)
	rj.record(rs, RecoveryEvent{Kind: "poisoned", Step: g.step, Rank: rank, Err: err})
}

// decodeBuddyCopy decodes and shape-checks generation g's buddy replica
// of rank r (local memory — the wire-shipping variant for a dead rank
// is fetchBuddy).
func (rj *ResilientJob) decodeBuddyCopy(g *ckptGeneration, r int) (*dycore.State, error) {
	if g.buddy[r] == nil {
		return nil, fmt.Errorf("%w: no buddy copy of rank %d", ErrBuddySnapshot, r)
	}
	st, step, err := DecodeRankSnapshot(g.buddy[r])
	if err != nil {
		return nil, err
	}
	if step != g.step {
		return nil, fmt.Errorf("%w: buddy copy of rank %d at step %d, want %d", ErrBuddySnapshot, r, step, g.step)
	}
	if st.NElem() != rj.local[r].NElem() {
		return nil, fmt.Errorf("%w: buddy copy of rank %d has %d elements, want %d",
			ErrBuddySnapshot, r, st.NElem(), rj.local[r].NElem())
	}
	return st, nil
}

// verifyGeneration re-verifies every rank's copy of g before a restore
// consumes it. A rank whose own copy fails its seal is healed from the
// buddy replica when that replica decodes clean; a rank with no usable
// copy at all poisons the generation — the returned error (wrapping
// integrity.ErrCorrupt) tells the caller to escalate to an older one.
// On nil return every g.own entry verifies and can restore the world.
func (rj *ResilientJob) verifyGeneration(rs *ResilientStats, g *ckptGeneration) error {
	reg := rj.Job.Obs.R()
	for r := range g.own {
		reg.Counter("integrity.gen.verifies").Add(1)
		if g.own[r] != nil {
			if g.seals[r] == nil {
				continue // unsealed (scrubbing off): accepted as-is
			}
			err := g.seals[r].Verify(g.own[r])
			if err == nil {
				continue
			}
			rj.markPoisoned(rs, g, r, fmt.Errorf("own checkpoint copy: %w", err))
			g.own[r] = nil // never restore from it again
		}
		// Own copy gone or rotten: the buddy replica is the last copy.
		healed, err := rj.decodeBuddyCopy(g, r)
		if err != nil {
			if g.buddy[r] != nil {
				rj.markPoisoned(rs, g, r, fmt.Errorf("buddy checkpoint copy: %w", err))
				g.buddy[r] = nil
			}
			return fmt.Errorf("%w: generation at step %d has no usable copy of rank %d: %w",
				integrity.ErrCorrupt, g.step, r, err)
		}
		g.own[r] = healed
		if g.seals[r] != nil {
			g.seals[r] = integrity.SealState(healed, g.step)
		}
		reg.Counter("integrity.gen.heals").Add(1)
	}
	return nil
}

// auditGeneration verifies every remaining copy of a generation leaving
// service — no healing, just counting: a flipped copy that no restore
// happened to consult must still register as a detection, never as a
// silent success. Idempotent per generation.
func (rj *ResilientJob) auditGeneration(rs *ResilientStats, g *ckptGeneration) {
	if g.audited {
		return
	}
	g.audited = true
	reg := rj.Job.Obs.R()
	for r := range g.own {
		reg.Counter("integrity.gen.audits").Add(1)
		if g.own[r] != nil && g.seals[r] != nil {
			if err := g.seals[r].Verify(g.own[r]); err != nil {
				rj.markPoisoned(rs, g, r, fmt.Errorf("own checkpoint copy: %w", err))
				g.own[r] = nil
			}
		}
		if g.buddy[r] != nil {
			if h, _, err := checkRankSnapshot(g.buddy[r]); err != nil || int(h.Step) != g.step {
				if err == nil {
					err = fmt.Errorf("%w: buddy copy at step %d, want %d", ErrBuddySnapshot, h.Step, g.step)
				}
				rj.markPoisoned(rs, g, r, fmt.Errorf("buddy checkpoint copy: %w", err))
				g.buddy[r] = nil
			}
		}
	}
}

// auditAllGenerations audits every retained generation (end of run,
// give-up, or a partition change invalidating the ring).
func (rj *ResilientJob) auditAllGenerations(rs *ResilientStats) {
	for _, g := range rj.gens {
		rj.auditGeneration(rs, g)
	}
}

// faultKey derives the deterministic bit-choice key of an injected flip
// from the fault's schedule coordinates, so a given fault spec always
// corrupts the same location.
func faultKey(f *mpirt.Fault) int64 {
	return f.AfterOp*1000003 + int64(f.Rank)*7919 + int64(f.Kind)
}

// flipStateBit flips one mantissa bit of one prognostic value of st,
// chosen deterministically from key — the silent-corruption model: the
// value stays finite and physically plausible, invisible to the blowup
// watchdog and to every message CRC. Returns a description of the
// flipped location.
func flipStateBit(st *dycore.State, key int64) string {
	k := uint64(key)
	var fields []dycore.NamedField
	for _, f := range st.Fields() {
		if len(f.Data) > 0 && len(f.Data[0]) > 0 { // Qdp is empty at qsize 0
			fields = append(fields, f)
		}
	}
	f := fields[k%uint64(len(fields))]
	e := int((k / 7) % uint64(len(f.Data)))
	vals := f.Data[e]
	i := int((k / 11) % uint64(len(vals)))
	bit := uint((k / 13) % 52)
	vals[i] = math.Float64frombits(math.Float64bits(vals[i]) ^ (1 << bit))
	return fmt.Sprintf("%s[%d][%d] bit %d", f.Name, e, i, bit)
}

// flipPayloadWord flips the low bit of one data byte of an encoded
// snapshot payload, past the framing word. Word i carries checkpoint
// bytes (i-1)*8..(i-1)*8+7, and a word exists only when its first byte
// is real data — so the flip always lands inside the CRC-covered bytes
// (or the CRC trailer itself) and the snapshot check must reject it.
func flipPayloadWord(p []float64, key int64) {
	if len(p) < 2 {
		return
	}
	i := 1 + int(uint64(key)%uint64(len(p)-1))
	p[i] = math.Float64frombits(math.Float64bits(p[i]) ^ 1)
}

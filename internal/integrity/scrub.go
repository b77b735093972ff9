package integrity

import (
	"fmt"

	"swcam/internal/dycore"
	"swcam/internal/mpirt"
)

// RankSeal is the at-rest scrub record for one rank's state: one
// CRC-32C per element, folded over every prognostic field of that
// element in canonical Fields() order. Per-element granularity keeps a
// verification failure attributable (which element rotted) and keeps
// resealing incremental-friendly.
//
// Step records the model step whose end-of-step state the seal covers.
// A verifier must skip seals whose Step does not match the state it is
// about to check — after a rollback, or under a scrub cadence coarser
// than every step, the seal is legitimately stale, not a detection.
type RankSeal struct {
	Step int
	crcs []uint32
}

// NewRankSeal returns an unsealed (Step -1) seal sized for nelem
// elements.
func NewRankSeal(nelem int) *RankSeal {
	return &RankSeal{Step: -1, crcs: make([]uint32, nelem)}
}

// SealState seals a fresh RankSeal over st as of step.
func SealState(st *dycore.State, step int) *RankSeal {
	s := NewRankSeal(st.NElem())
	s.Reseal(st, step)
	return s
}

// Reseal recomputes every element CRC over st and stamps the seal with
// step. The state must be at rest (no concurrent mutation).
func (s *RankSeal) Reseal(st *dycore.State, step int) {
	if len(s.crcs) != st.NElem() {
		panic(fmt.Sprintf("integrity: seal for %d elements resealed over %d", len(s.crcs), st.NElem()))
	}
	fields := st.Fields()
	for e := range s.crcs {
		s.crcs[e] = elemCRC(fields, e)
	}
	s.Step = step
}

// elemCRC folds element e of every field into one CRC-32C: the message
// checksum, the polynomial the snapshot codec and serving store also use.
func elemCRC(fields []dycore.NamedField, e int) uint32 {
	crc := uint32(0)
	for _, f := range fields {
		crc = mpirt.CRCFloats(crc, f.Data[e])
	}
	return crc
}

// Verify recomputes the element CRCs of st and compares them to the
// seal. The first mismatching element produces an error wrapping
// ErrCorrupt; nil means every element still matches the sealed bits.
func (s *RankSeal) Verify(st *dycore.State) error {
	if len(s.crcs) != st.NElem() {
		return fmt.Errorf("%w: seal covers %d elements, state has %d", ErrCorrupt, len(s.crcs), st.NElem())
	}
	fields := st.Fields()
	for e := range s.crcs {
		if crc := elemCRC(fields, e); crc != s.crcs[e] {
			return fmt.Errorf("%w: element %d crc %#08x, sealed %#08x at step %d",
				ErrCorrupt, e, crc, s.crcs[e], s.Step)
		}
	}
	return nil
}

// Clone returns an independent copy of the seal.
func (s *RankSeal) Clone() *RankSeal {
	c := &RankSeal{Step: s.Step, crcs: make([]uint32, len(s.crcs))}
	copy(c.crcs, s.crcs)
	return c
}

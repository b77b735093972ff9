package dycore

import "fmt"

// State holds the prognostic fields of the dycore for a set of elements
// (a rank's partition, or the whole sphere in serial runs).
//
// Horizontal fields are stored level-major: value (k, node) lives at
// index k*np*np + node, so one level's np x np slab is contiguous — the
// layout that favours the horizontal spectral operators. Vertical scans
// (pressure, geopotential, remap) therefore walk with stride np*np,
// which is precisely the axis-switch tension the paper's LDM transposes
// address (§7.3, §7.5).
type State struct {
	Np    int
	Nlev  int
	Qsize int

	U    [][]float64 // zonal wind, m/s          [elem][k*npsq+n]
	V    [][]float64 // meridional wind, m/s     [elem][k*npsq+n]
	T    [][]float64 // temperature, K           [elem][k*npsq+n]
	DP   [][]float64 // layer thickness, Pa      [elem][k*npsq+n]
	Qdp  [][]float64 // tracer mass, Pa          [elem][(q*nlev+k)*npsq+n]
	Phis [][]float64 // surface geopotential     [elem][n]
}

// NewState allocates a zeroed state for nelem elements.
func NewState(nelem, np, nlev, qsize int) *State {
	if np < 2 || nlev < 1 || qsize < 0 {
		panic(fmt.Sprintf("dycore: bad state dims np=%d nlev=%d qsize=%d", np, nlev, qsize))
	}
	npsq := np * np
	s := &State{Np: np, Nlev: nlev, Qsize: qsize}
	alloc := func(per int) [][]float64 {
		f := make([][]float64, nelem)
		for i := range f {
			f[i] = make([]float64, per)
		}
		return f
	}
	s.U = alloc(nlev * npsq)
	s.V = alloc(nlev * npsq)
	s.T = alloc(nlev * npsq)
	s.DP = alloc(nlev * npsq)
	s.Qdp = alloc(qsize * nlev * npsq)
	s.Phis = alloc(npsq)
	return s
}

// NElem returns the number of elements in the state.
func (s *State) NElem() int { return len(s.U) }

// NamedField pairs a prognostic field with its name, for code that must
// walk every field of a State generically (integrity seals, hashing,
// snapshot codecs) and attribute findings to a field by name.
type NamedField struct {
	Name string
	Data [][]float64
}

// Fields returns every prognostic array of the state in canonical order
// (U, V, T, DP, Qdp, Phis). The returned slices alias the state — this
// is a walk, not a copy. Any new [][]float64 field added to State must
// be added here; a reflection test enforces that, so integrity seals
// and state hashes can never silently skip a field.
func (s *State) Fields() []NamedField {
	return []NamedField{
		{"U", s.U},
		{"V", s.V},
		{"T", s.T},
		{"DP", s.DP},
		{"Qdp", s.Qdp},
		{"Phis", s.Phis},
	}
}

// NpSq returns np*np, the nodes per level slab.
func (s *State) NpSq() int { return s.Np * s.Np }

// Clone returns a deep copy.
func (s *State) Clone() *State {
	c := NewState(s.NElem(), s.Np, s.Nlev, s.Qsize)
	copyAll := func(dst, src [][]float64) {
		for i := range src {
			copy(dst[i], src[i])
		}
	}
	copyAll(c.U, s.U)
	copyAll(c.V, s.V)
	copyAll(c.T, s.T)
	copyAll(c.DP, s.DP)
	copyAll(c.Qdp, s.Qdp)
	copyAll(c.Phis, s.Phis)
	return c
}

// SameShape reports whether s and o have the same dimensions, i.e.
// whether one can be CopyFrom'd into the other.
func (s *State) SameShape(o *State) bool {
	return s.NElem() == o.NElem() && s.Np == o.Np && s.Nlev == o.Nlev && s.Qsize == o.Qsize
}

// CopyFrom overwrites s with o (same dims required).
func (s *State) CopyFrom(o *State) {
	if !s.SameShape(o) {
		panic("dycore: CopyFrom dimension mismatch")
	}
	cp := func(dst, src [][]float64) {
		for i := range src {
			copy(dst[i], src[i])
		}
	}
	cp(s.U, o.U)
	cp(s.V, o.V)
	cp(s.T, o.T)
	cp(s.DP, o.DP)
	cp(s.Qdp, o.Qdp)
	cp(s.Phis, o.Phis)
}

// QdpAt returns the slice of tracer q for element e (all levels).
func (s *State) QdpAt(e, q int) []float64 {
	n := s.Nlev * s.NpSq()
	return s.Qdp[e][q*n : (q+1)*n]
}

// SurfacePressure computes ps = PTop + sum_k dp(k) at node n of element e.
func (s *State) SurfacePressure(e, n int) float64 {
	npsq := s.NpSq()
	ps := PTop
	for k := 0; k < s.Nlev; k++ {
		ps += s.DP[e][k*npsq+n]
	}
	return ps
}

// MaxAbsDiff returns the largest absolute difference between two states
// over the prognostic fields — the backend-equivalence metric.
func (s *State) MaxAbsDiff(o *State) float64 {
	max := 0.0
	cmp := func(a, b [][]float64) {
		for i := range a {
			for k := range a[i] {
				d := a[i][k] - b[i][k]
				if d < 0 {
					d = -d
				}
				if d > max {
					max = d
				}
			}
		}
	}
	cmp(s.U, o.U)
	cmp(s.V, o.V)
	cmp(s.T, o.T)
	cmp(s.DP, o.DP)
	cmp(s.Qdp, o.Qdp)
	return max
}

package dycore

import "testing"

func benchSolver(b *testing.B, ne, nlev, qsize int) (*Solver, *State) {
	b.Helper()
	cfg := DefaultConfig(ne)
	cfg.Nlev = nlev
	cfg.Qsize = qsize
	s, err := NewSolver(cfg)
	if err != nil {
		b.Fatal(err)
	}
	st := s.NewState()
	s.InitBaroclinicWave(st)
	return s, st
}

func BenchmarkComputeAndApplyRHS(b *testing.B) {
	s, st := benchSolver(b, 2, 16, 0)
	out := st.Clone()
	ws := NewWorkspace(4, 16)
	rhs := NewRHS(4, 16)
	e := s.Mesh.Elements[0]
	cor := Coriolis(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeAndApplyRHSElem(e, cor, s.Mesh.DerivFlat, ws, rhs,
			st.U[0], st.V[0], st.T[0], st.DP[0], st.Phis[0],
			st.U[0], st.V[0], st.T[0], st.DP[0],
			out.U[0], out.V[0], out.T[0], out.DP[0], 60)
	}
}

func BenchmarkEulerStepElem(b *testing.B) {
	s, st := benchSolver(b, 2, 16, 1)
	e := s.Mesh.Elements[0]
	flxU := make([]float64, 16)
	flxV := make([]float64, 16)
	div := make([]float64, 16)
	gv1 := make([]float64, 16)
	gv2 := make([]float64, 16)
	qdp := st.QdpAt(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EulerStepElem(e, s.Mesh.DerivFlat, 4, 16, st.U[0], st.V[0], qdp, qdp, 60, flxU, flxV, div, gv1, gv2)
	}
}

func BenchmarkRemapPPMColumn(b *testing.B) {
	const n = 128
	dpS := make([]float64, n)
	dpT := make([]float64, n)
	a := make([]float64, n)
	out := make([]float64, n)
	for i := range dpS {
		dpS[i] = 1 + 0.1*float64(i%7)
		dpT[i] = dpS[(i+3)%n]
		a[i] = float64(i % 13)
	}
	var totS, totT float64
	for i := range dpS {
		totS += dpS[i]
		totT += dpT[i]
	}
	for i := range dpT {
		dpT[i] *= totS / totT
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RemapPPM(dpS, a, dpT, out)
	}
}

func BenchmarkFullStepNe4(b *testing.B) {
	s, st := benchSolver(b, 4, 8, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(st)
	}
}

func BenchmarkShallowWaterStep(b *testing.B) {
	s, err := NewSWSolver(4, 600)
	if err != nil {
		b.Fatal(err)
	}
	st := s.NewState()
	s.InitRossbyHaurwitz(st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(st)
	}
}

// benchSlabs is one element's metric plus two np=4 input slabs, three
// output slabs and two scratch slabs for the derivative-operator
// benchmarks.
func benchSlabs(b *testing.B) (s *Solver, u, v, o1, o2, s1, s2 []float64) {
	s, st := benchSolver(b, 2, 4, 0)
	buf := make([]float64, 4*16)
	return s, st.U[0][:16], st.T[0][:16], buf[0:16], buf[16:32], buf[32:48], buf[48:64]
}

func BenchmarkGradientSlab(b *testing.B) {
	s, u, _, gx, gy, s1, s2 := benchSlabs(b)
	e := s.Mesh.Elements[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GradientSlab(s.Mesh.DerivFlat, e.DinvFlat, e.DAlpha, 4, u, gx, gy, s1, s2)
	}
}

func BenchmarkDivergenceSlab(b *testing.B) {
	s, u, v, div, _, s1, s2 := benchSlabs(b)
	e := s.Mesh.Elements[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DivergenceSlab(s.Mesh.DerivFlat, e.DinvFlat, e.Metdet, e.DAlpha, 4, u, v, div, s1, s2)
	}
}

func BenchmarkVorticitySlab(b *testing.B) {
	s, u, v, vort, _, s1, s2 := benchSlabs(b)
	e := s.Mesh.Elements[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VorticitySlab(s.Mesh.DerivFlat, e.DFlat, e.Metdet, e.DAlpha, 4, u, v, vort, s1, s2)
	}
}

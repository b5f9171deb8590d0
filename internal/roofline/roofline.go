// Package roofline connects Kung's 1985 balance model to its modern
// descendant, the roofline model: a PE with computation bandwidth C and I/O
// bandwidth IO attains at most
//
//	P(I) = min(C, IO·I)
//
// operations per second at operational intensity I = Ccomp/Cio. In Kung's
// model the intensity is not a free parameter — it is R(M), a function of
// the local memory size — so every computation traces a path along the
// roofline as M grows: matrix computations climb the bandwidth slope as √M
// and reach the compute roof at M = (C/IO)²; FFT and sorting climb only
// logarithmically; I/O-bounded computations stall on the slope forever. The
// ridge point I = C/IO is exactly the paper's balance condition.
package roofline

import (
	"fmt"
	"math"

	"balarch/internal/model"
	"balarch/internal/textplot"
)

// Point is one sampled position on a computation's roofline path.
type Point struct {
	// Memory is the local memory size in words.
	Memory float64
	// Intensity is R(Memory) = Ccomp/Cio at that size.
	Intensity float64
	// Attainable is min(C, IO·Intensity) in operations per second.
	Attainable float64
	// ComputeBound reports whether the compute roof limits this point.
	ComputeBound bool
}

// Model evaluates rooflines for one PE.
type Model struct {
	PE model.PE
}

// New validates the PE and returns a roofline model for it.
func New(pe model.PE) (*Model, error) {
	if err := pe.Validate(); err != nil {
		return nil, err
	}
	return &Model{PE: pe}, nil
}

// RidgeIntensity returns C/IO, the intensity at which the bandwidth slope
// meets the compute roof — Kung's balance point.
func (m *Model) RidgeIntensity() float64 { return m.PE.Intensity() }

// Attainable returns min(C, IO·intensity), the roofline ceiling.
func (m *Model) Attainable(intensity float64) float64 {
	if intensity < 0 {
		return 0
	}
	return math.Min(m.PE.C, m.PE.IO*intensity)
}

// PathPoint evaluates one memory size of a computation's roofline path. The
// flat PE is the one-level hierarchy, so the point comes from the same
// multi-ridge evaluation HierarchyModel uses, on that one-level stack.
func (m *Model) PathPoint(c model.Computation, memory float64) Point {
	levels := [1]model.Level{{BW: m.PE.IO, M: memory}}
	p := evaluate(model.Hierarchy{C: m.PE.C, Levels: levels[:]}, c, 0, 0)
	return Point{
		Memory:       memory,
		Intensity:    p.Intensity,
		Attainable:   p.Attainable,
		ComputeBound: p.ComputeBound,
	}
}

// Path samples the computation's roofline path at geometrically spaced
// memory sizes from lo to hi (inclusive-ish), factor step > 1.
func (m *Model) Path(c model.Computation, lo, hi, step float64) ([]Point, error) {
	return sweep(lo, hi, step, func(mem float64) Point { return m.PathPoint(c, mem) })
}

// sweep is the one sampling loop behind both Path methods: at(mem) for
// geometrically spaced mem from lo to hi (inclusive-ish), factor step > 1.
func sweep[P any](lo, hi, step float64, at func(mem float64) P) ([]P, error) {
	if !(lo > 0) || !(hi >= lo) || !(step > 1) {
		return nil, fmt.Errorf("roofline: bad sweep [%v, %v] step %v", lo, hi, step)
	}
	var pts []P
	for mem := lo; mem <= hi*(1+1e-12); mem *= step {
		pts = append(pts, at(mem))
	}
	return pts, nil
}

// MemoryAtRidge returns the local memory at which the computation reaches
// the ridge (the balance memory), or ErrNotRebalanceable if it never does.
func (m *Model) MemoryAtRidge(c model.Computation, maxM float64) (float64, error) {
	return c.RequiredMemory(m.RidgeIntensity(), maxM)
}

// Efficiency returns the fraction of the compute roof a computation attains
// at the given memory: Attainable(R(M))/C ∈ (0, 1].
func (m *Model) Efficiency(c model.Computation, memory float64) float64 {
	return m.Attainable(c.Ratio(memory)) / m.PE.C
}

// Chart renders the classic roofline picture in text: attainable
// performance (y, log) vs operational intensity (x, log), with the ridge
// marked and each computation's path overlaid across the memory sweep.
func (m *Model) Chart(comps []model.Computation, lo, hi float64) (string, error) {
	ch := textplot.NewChart(fmt.Sprintf("roofline: %s (ridge at I = %.3g)", m.PE, m.RidgeIntensity()))
	ch.LogX, ch.LogY = true, true
	ch.XLabel, ch.YLabel = "operational intensity R(M) (ops/word)", "attainable ops/s"

	// The roofline itself, sampled across the intensity range the paths
	// will span.
	iLo, iHi := math.Inf(1), 0.0
	paths := make([][]Point, len(comps))
	for k, c := range comps {
		pts, err := m.Path(c, lo, hi, 4)
		if err != nil {
			return "", err
		}
		paths[k] = pts
		for _, p := range pts {
			iLo = math.Min(iLo, p.Intensity)
			iHi = math.Max(iHi, p.Intensity)
		}
	}
	if iLo <= 0 || math.IsInf(iLo, 1) {
		return "", fmt.Errorf("roofline: no positive intensities to plot")
	}
	var roofX, roofY []float64
	for i := iLo; i <= iHi*1.0001; i *= 1.3 {
		roofX = append(roofX, i)
		roofY = append(roofY, m.Attainable(i))
	}
	ch.Add(textplot.Series{Name: "roofline min(C, IO·I)", Marker: '-', X: roofX, Y: roofY})
	for k, c := range comps {
		xs := make([]float64, len(paths[k]))
		ys := make([]float64, len(paths[k]))
		for i, p := range paths[k] {
			xs[i] = p.Intensity
			ys[i] = p.Attainable
		}
		ch.Add(textplot.Series{Name: c.Name + " (M sweep)", X: xs, Y: ys})
	}
	return ch.String(), nil
}

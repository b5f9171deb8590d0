package roofline

// Multi-ridge rooflines. A flat PE's roofline has one bandwidth slope and
// one ridge at I = C/IO. A memory hierarchy has one slope per boundary:
// traffic across boundary i flows at Levels[i-1].BW, and the computation's
// operational intensity at that boundary is R(W_i) — the achievable ratio
// at the cumulative capacity W_i inside it (model.AnalyzeHierarchy's
// composition rule). Attainable performance is the lowest ceiling any
// boundary imposes:
//
//	P = min(C, min_i BW_i · R(W_i))
//
// so the classic picture grows one ridge per boundary — the machine can sit
// on the compute roof with respect to its cache and under the bandwidth
// slope of its disk — and the binding boundary is the argmin.

import (
	"fmt"
	"math"

	"balarch/internal/model"
	"balarch/internal/textplot"
)

// Ridge is one boundary's ridge point: where that boundary's bandwidth
// slope meets the compute roof. Kung's balance condition, once per boundary.
type Ridge struct {
	// Boundary is the 1-based boundary index (innermost first).
	Boundary int
	// Bandwidth is the boundary's channel bandwidth in words/s.
	Bandwidth float64
	// Intensity is C/Bandwidth, the balance intensity of this boundary.
	Intensity float64
}

// HierarchyModel evaluates multi-ridge rooflines for one hierarchy.
type HierarchyModel struct {
	H model.Hierarchy
}

// NewHierarchy validates the hierarchy and returns its roofline model.
func NewHierarchy(h model.Hierarchy) (*HierarchyModel, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return &HierarchyModel{H: h}, nil
}

// Ridges returns one ridge per boundary, innermost first. Bandwidths are
// non-increasing outward, so ridge intensities are non-decreasing.
func (m *HierarchyModel) Ridges() []Ridge {
	out := make([]Ridge, m.H.Depth())
	for i := range out {
		out[i] = Ridge{
			Boundary:  i + 1,
			Bandwidth: m.H.Levels[i].BW,
			Intensity: m.H.BoundaryIntensity(i + 1),
		}
	}
	return out
}

// HierarchyPoint is one evaluated position of a computation on the
// multi-ridge roofline.
type HierarchyPoint struct {
	// Memory is the swept level's capacity in words (Path) or the level's
	// current capacity (Point).
	Memory float64
	// Intensity is the computation's operational intensity R(W) at the
	// binding boundary.
	Intensity float64
	// Attainable is min(C, min_i BW_i·R(W_i)) in ops/s.
	Attainable float64
	// Binding is the 1-based boundary imposing the lowest ceiling; 0 when
	// the compute roof itself binds.
	Binding int
	// ComputeBound reports whether the compute roof limits this point.
	ComputeBound bool
}

// evaluate computes the multi-ridge attainable of h with level's capacity
// (1-based) replaced by capacity; level 0 evaluates h as it stands. Every
// roofline point, flat or hierarchical, comes from here.
func evaluate(h model.Hierarchy, c model.Computation, level int, capacity float64) HierarchyPoint {
	p := HierarchyPoint{Attainable: h.C, ComputeBound: true}
	var within float64
	for i, l := range h.Levels {
		if i+1 == level {
			l.M = capacity
		}
		within += l.M // the cumulative capacity W_i inside boundary i
		r := c.Ratio(within)
		ceiling := 0.0
		if r > 0 {
			ceiling = l.BW * r
		}
		if ceiling < p.Attainable {
			p.Attainable = ceiling
			p.Binding = i + 1
			p.Intensity = r
			p.ComputeBound = false
		}
	}
	if p.ComputeBound {
		// On the roof every boundary over-delivers; report the outermost
		// boundary's intensity, the one nearest its ridge.
		p.Intensity = c.Ratio(within)
	}
	return p
}

// Point evaluates the computation at the hierarchy's current capacities.
func (m *HierarchyModel) Point(c model.Computation) HierarchyPoint {
	p := evaluate(m.H, c, 0, 0)
	p.Memory = m.H.TotalCapacity()
	return p
}

// PathPoint evaluates the computation with level's capacity (1-based)
// replaced by capacity words — one sample of a level sweep.
func (m *HierarchyModel) PathPoint(c model.Computation, level int, capacity float64) HierarchyPoint {
	p := evaluate(m.H, c, level, capacity)
	p.Memory = capacity
	return p
}

// Path sweeps level's capacity (1-based) geometrically from lo to hi with
// factor step > 1 and returns the computation's multi-ridge roofline path.
func (m *HierarchyModel) Path(c model.Computation, level int, lo, hi, step float64) ([]HierarchyPoint, error) {
	if level < 1 || level > m.H.Depth() {
		return nil, fmt.Errorf("roofline: sweep level %d outside hierarchy depth %d", level, m.H.Depth())
	}
	return sweep(lo, hi, step, func(mem float64) HierarchyPoint { return m.PathPoint(c, level, mem) })
}

// Chart renders the multi-ridge roofline in text: one bandwidth slope per
// boundary (each capped by the compute roof), a vertical rule at every
// ridge intensity, and each computation's per-boundary operating points at
// the hierarchy's current capacities.
func (m *HierarchyModel) Chart(comps []model.Computation) (string, error) {
	ridges := m.Ridges()
	ch := textplot.NewChart(fmt.Sprintf("multi-ridge roofline: %s", m.H))
	ch.LogX, ch.LogY = true, true
	ch.XLabel, ch.YLabel = "operational intensity R(W) (ops/word)", "attainable ops/s"

	// Operating points first, to learn the intensity range the boundaries
	// span for this computation set.
	iLo, iHi := math.Inf(1), 0.0
	type opSeries struct {
		name   string
		xs, ys []float64
	}
	ops := make([]opSeries, 0, len(comps))
	for _, c := range comps {
		s := opSeries{name: c.Name + " (per boundary)"}
		for b := 1; b <= m.H.Depth(); b++ {
			r := c.Ratio(m.H.CapacityWithin(b))
			if r <= 0 {
				continue
			}
			s.xs = append(s.xs, r)
			s.ys = append(s.ys, math.Min(m.H.C, m.H.Levels[b-1].BW*r))
			iLo = math.Min(iLo, r)
			iHi = math.Max(iHi, r)
		}
		ops = append(ops, s)
	}
	for _, r := range ridges {
		iLo = math.Min(iLo, r.Intensity)
		iHi = math.Max(iHi, r.Intensity)
	}
	if iLo <= 0 || math.IsInf(iLo, 1) {
		return "", fmt.Errorf("roofline: no positive intensities to plot")
	}
	iLo, iHi = iLo/2, iHi*2

	// One roof per boundary: min(C, BW_i·I) across the range.
	yMin := m.H.C
	for _, r := range ridges {
		var xs, ys []float64
		for i := iLo; i <= iHi*1.0001; i *= 1.3 {
			xs = append(xs, i)
			y := math.Min(m.H.C, r.Bandwidth*i)
			ys = append(ys, y)
			yMin = math.Min(yMin, y)
		}
		ch.Add(textplot.Series{
			Name:   fmt.Sprintf("boundary %d roof min(C, %s·I), ridge at I=%.3g", r.Boundary, siBW(r.Bandwidth), r.Intensity),
			Marker: '-',
			X:      xs, Y: ys,
		})
	}
	for _, r := range ridges {
		ch.Add(ch.RuleX(fmt.Sprintf("ridge %d at I=%.3g", r.Boundary, r.Intensity),
			r.Intensity, yMin, m.H.C, '|'))
	}
	for _, s := range ops {
		ch.Add(textplot.Series{Name: s.name, X: s.xs, Y: s.ys})
	}
	return ch.String(), nil
}

// siBW renders a bandwidth with an SI suffix for the chart legend.
func siBW(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.3gG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3gK", v/1e3)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

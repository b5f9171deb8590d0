// An append-style Prometheus text-format (version 0.0.4) encoder. The
// encoder is a state machine over a caller-owned byte slice: Begin a
// sample, add Labels, close it with a Value — no intermediate strings,
// no fmt, so rendering an exposition reuses one pooled buffer.

package obs

import (
	"math"
	"strconv"
)

// PromContentType is the exposition's Content-Type.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromEnc encodes Prometheus text format into B by appending.
type PromEnc struct {
	B        []byte
	inLabels bool
}

// Header writes the # HELP and # TYPE comment pair for a metric family.
// typ is one of "counter", "gauge", "histogram".
func (e *PromEnc) Header(name, help, typ string) {
	e.B = append(e.B, "# HELP "...)
	e.B = append(e.B, name...)
	e.B = append(e.B, ' ')
	e.B = append(e.B, help...)
	e.B = append(e.B, "\n# TYPE "...)
	e.B = append(e.B, name...)
	e.B = append(e.B, ' ')
	e.B = append(e.B, typ...)
	e.B = append(e.B, '\n')
}

// Begin opens one sample line for the named metric.
func (e *PromEnc) Begin(name string) {
	e.B = append(e.B, name...)
	e.inLabels = false
}

// Label adds one label to the open sample, escaping the value
// (backslash, double quote, newline) per the text-format rules.
func (e *PromEnc) Label(key, value string) {
	if e.inLabels {
		e.B = append(e.B, ',')
	} else {
		e.B = append(e.B, '{')
		e.inLabels = true
	}
	e.B = append(e.B, key...)
	e.B = append(e.B, '=', '"')
	for i := 0; i < len(value); i++ {
		switch c := value[i]; c {
		case '\\':
			e.B = append(e.B, '\\', '\\')
		case '"':
			e.B = append(e.B, '\\', '"')
		case '\n':
			e.B = append(e.B, '\\', 'n')
		default:
			e.B = append(e.B, c)
		}
	}
	e.B = append(e.B, '"')
}

// LabelFloat adds one label whose value is a rendered float — the le
// bound of a histogram bucket — without an intermediate string.
func (e *PromEnc) LabelFloat(key string, v float64) {
	if e.inLabels {
		e.B = append(e.B, ',')
	} else {
		e.B = append(e.B, '{')
		e.inLabels = true
	}
	e.B = append(e.B, key...)
	e.B = append(e.B, '=', '"')
	e.B = appendPromFloat(e.B, v)
	e.B = append(e.B, '"')
}

// Value closes the open sample with its value.
func (e *PromEnc) Value(v float64) {
	if e.inLabels {
		e.B = append(e.B, '}')
		e.inLabels = false
	}
	e.B = append(e.B, ' ')
	e.B = appendPromFloat(e.B, v)
	e.B = append(e.B, '\n')
}

// Int closes the open sample with an integer value.
func (e *PromEnc) Int(v int64) {
	if e.inLabels {
		e.B = append(e.B, '}')
		e.inLabels = false
	}
	e.B = append(e.B, ' ')
	e.B = strconv.AppendInt(e.B, v, 10)
	e.B = append(e.B, '\n')
}

func appendPromFloat(dst []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(dst, "+Inf"...)
	case math.IsInf(v, -1):
		return append(dst, "-Inf"...)
	case math.IsNaN(v):
		return append(dst, "NaN"...)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// Histogram writes one histogram series: cumulative buckets over the
// given upper bounds (counts[i] observations at or under bounds[i], over
// beyond the last bound), the +Inf bucket, _sum, and _count. labelKey
// may be "" for an unlabeled series; otherwise every sample carries
// {labelKey="labelValue"}.
func (e *PromEnc) Histogram(name, labelKey, labelValue string, bounds []float64, counts []int64, over int64, sum float64) {
	var cum int64
	for i, bound := range bounds {
		cum += counts[i]
		e.beginSuffixed(name, "_bucket")
		if labelKey != "" {
			e.Label(labelKey, labelValue)
		}
		e.LabelFloat("le", bound)
		e.Int(cum)
	}
	cum += over
	e.beginSuffixed(name, "_bucket")
	if labelKey != "" {
		e.Label(labelKey, labelValue)
	}
	e.Label("le", "+Inf")
	e.Int(cum)
	e.beginSuffixed(name, "_sum")
	if labelKey != "" {
		e.Label(labelKey, labelValue)
	}
	e.Value(sum)
	e.beginSuffixed(name, "_count")
	if labelKey != "" {
		e.Label(labelKey, labelValue)
	}
	e.Int(cum)
}

// beginSuffixed opens a sample line for name+suffix without building the
// concatenated string.
func (e *PromEnc) beginSuffixed(name, suffix string) {
	e.B = append(e.B, name...)
	e.B = append(e.B, suffix...)
	e.inLabels = false
}

// Hist writes one HistSnap as a histogram series on LatencyBounds.
func (e *PromEnc) Hist(name, labelKey, labelValue string, h *HistSnap) {
	e.Histogram(name, labelKey, labelValue, LatencyBounds[:], h.Counts[:], h.Over, h.Sum.Seconds())
}

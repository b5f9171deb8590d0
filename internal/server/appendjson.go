package server

// Hand-rolled append-style JSON encoding for the hot response types. The
// encoder exists because it pays end to end: with it turned off,
// balarchbench measured hierarchy-mix at 0.89× throughput and 1.12× p99
// over a loopback socket (analyze-flat was unchanged; DESIGN.md §8). It
// exists under one invariant: its output is byte-identical to
// encoding/json's for every value it accepts (pinned by the differential
// tests in diff_test.go). Anything
// it cannot encode identically — an unknown type, a NaN/Inf float — makes
// it bail out so the caller falls back to encoding/json, which also keeps
// the error behavior (e.g. UnsupportedValueError) exactly the stdlib's.
//
// The replicated stdlib behaviors, from Go's encoding/json with
// SetEscapeHTML(true) (the Encoder/Marshal default):
//
//   - strings: printable ASCII except  " & < > \  passes through; the named
//     escapes \" \\ \b \f \n \r \t; other control bytes and & < > as \u00xx
//     (lowercase hex); invalid UTF-8 bytes as \ufffd; U+2028/U+2029 as
//      / ; all other UTF-8 copied verbatim.
//   - float64: strconv.AppendFloat with 'f', switching to 'e' when
//     abs < 1e-6 or abs >= 1e21, then rewriting a one-digit negative
//     exponent ("2e-07" → "2e-7").
//   - indent mode matches json.Indent("", "  "): newline + two spaces per
//     depth before every member, space after the colon, {} and [] compact.

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// jenc is one in-flight encode. bad marks a value the stdlib would refuse
// (NaN/Inf); the caller then discards the partial output and falls back.
type jenc struct {
	buf    []byte
	indent bool
	depth  int
	bad    bool
}

const jsonHexDigits = "0123456789abcdef"

// jsonSafeByte reports whether b passes through json's string encoder
// unescaped under the default HTML-escaping policy (htmlSafeSet).
func jsonSafeByte(b byte) bool {
	return b >= 0x20 && b < utf8.RuneSelf &&
		b != '"' && b != '\\' && b != '&' && b != '<' && b != '>'
}

// appendJSONString appends the JSON encoding of s, replicating
// encoding/json's appendString with escapeHTML=true.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafeByte(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Control bytes without a named escape, plus & < >.
				dst = append(dst, '\\', 'u', '0', '0',
					jsonHexDigits[b>>4], jsonHexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == ' ' || c == ' ' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends the JSON encoding of f, replicating
// encoding/json's floatEncoder for float64; ok is false for NaN/Inf.
func appendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as the stdlib does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// --- structural helpers ---

func (e *jenc) nl() {
	if !e.indent {
		return
	}
	e.buf = append(e.buf, '\n')
	for i := 0; i < e.depth; i++ {
		e.buf = append(e.buf, ' ', ' ')
	}
}

func (e *jenc) objOpen() {
	e.buf = append(e.buf, '{')
	e.depth++
}

// objClose closes an object; any reports whether it had members (an empty
// object stays the compact "{}" even in indent mode).
func (e *jenc) objClose(any bool) {
	e.depth--
	if any {
		e.nl()
	}
	e.buf = append(e.buf, '}')
}

func (e *jenc) arrOpen() {
	e.buf = append(e.buf, '[')
	e.depth++
}

func (e *jenc) arrClose(any bool) {
	e.depth--
	if any {
		e.nl()
	}
	e.buf = append(e.buf, ']')
}

// key starts an object member. Member names are plain ASCII identifiers in
// this API, so they need no escaping.
func (e *jenc) key(first *bool, name string) {
	if *first {
		*first = false
	} else {
		e.buf = append(e.buf, ',')
	}
	e.nl()
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, '"', ':')
	if e.indent {
		e.buf = append(e.buf, ' ')
	}
}

// arrElem starts an array element.
func (e *jenc) arrElem(first *bool) {
	if *first {
		*first = false
	} else {
		e.buf = append(e.buf, ',')
	}
	e.nl()
}

func (e *jenc) str(s string)   { e.buf = appendJSONString(e.buf, s) }
func (e *jenc) intv(v int64)   { e.buf = strconv.AppendInt(e.buf, v, 10) }
func (e *jenc) uintv(v uint64) { e.buf = strconv.AppendUint(e.buf, v, 10) }

func (e *jenc) float(f float64) {
	b, ok := appendJSONFloat(e.buf, f)
	if !ok {
		e.bad = true
		return
	}
	e.buf = b
}

func (e *jenc) boolv(v bool) {
	if v {
		e.buf = append(e.buf, "true"...)
	} else {
		e.buf = append(e.buf, "false"...)
	}
}

func (e *jenc) null() { e.buf = append(e.buf, "null"...) }

// --- per-type encoders (field order and omitempty mirror the DTO tags) ---

func (e *jenc) peDTO(p PEDTO) {
	e.objOpen()
	first := true
	e.key(&first, "c")
	e.float(p.C)
	e.key(&first, "io")
	e.float(p.IO)
	e.key(&first, "m")
	e.float(p.M)
	e.objClose(true)
}

func (e *jenc) levelDTOs(ls []LevelDTO) {
	e.arrOpen()
	first := true
	for i := range ls {
		l := &ls[i]
		e.arrElem(&first)
		e.objOpen()
		f := true
		if l.Name != "" {
			e.key(&f, "name")
			e.str(l.Name)
		}
		e.key(&f, "bw")
		e.float(l.BW)
		e.key(&f, "m")
		e.float(l.M)
		e.objClose(true)
	}
	e.arrClose(!first)
}

func (e *jenc) analyzeResponse(r *AnalyzeResponse) {
	if r == nil {
		e.null()
		return
	}
	e.objOpen()
	first := true
	e.key(&first, "computation")
	e.str(r.Computation)
	e.key(&first, "section")
	e.str(r.Section)
	e.key(&first, "pe")
	e.peDTO(r.PE)
	e.key(&first, "intensity")
	e.float(r.Intensity)
	e.key(&first, "achievable_ratio")
	e.float(r.AchievableRatio)
	e.key(&first, "state")
	e.str(r.State)
	if r.BalancedMemory != 0 {
		e.key(&first, "balanced_memory")
		e.float(r.BalancedMemory)
	}
	e.key(&first, "rebalanceable")
	e.boolv(r.Rebalanceable)
	e.key(&first, "law")
	e.str(r.Law)
	if len(r.Levels) > 0 {
		e.key(&first, "levels")
		e.levelDTOs(r.Levels)
	}
	if len(r.Boundaries) > 0 {
		e.key(&first, "boundaries")
		e.arrOpen()
		af := true
		for i := range r.Boundaries {
			b := &r.Boundaries[i]
			e.arrElem(&af)
			e.objOpen()
			f := true
			e.key(&f, "boundary")
			e.intv(int64(b.Boundary))
			if b.Name != "" {
				e.key(&f, "name")
				e.str(b.Name)
			}
			e.key(&f, "bw")
			e.float(b.BW)
			e.key(&f, "capacity_within")
			e.float(b.CapacityWithin)
			e.key(&f, "intensity")
			e.float(b.Intensity)
			e.key(&f, "achievable_ratio")
			e.float(b.AchievableRatio)
			e.key(&f, "state")
			e.str(b.State)
			if b.BalancedMemory != 0 {
				e.key(&f, "balanced_memory")
				e.float(b.BalancedMemory)
			}
			e.key(&f, "rebalanceable")
			e.boolv(b.Rebalanceable)
			e.objClose(true)
		}
		e.arrClose(!af)
	}
	if r.BindingBoundary != 0 {
		e.key(&first, "binding_boundary")
		e.intv(int64(r.BindingBoundary))
	}
	e.objClose(true)
}

func (e *jenc) sweepResponse(r *SweepResponse) {
	if r == nil {
		e.null()
		return
	}
	e.objOpen()
	first := true
	e.key(&first, "kernel")
	e.str(r.Kernel)
	e.key(&first, "points")
	if r.Points == nil {
		e.null()
	} else {
		e.arrOpen()
		af := true
		for i := range r.Points {
			p := &r.Points[i]
			e.arrElem(&af)
			e.objOpen()
			f := true
			e.key(&f, "memory")
			e.intv(int64(p.Memory))
			e.key(&f, "ops")
			e.uintv(p.Ops)
			e.key(&f, "reads")
			e.uintv(p.Reads)
			e.key(&f, "writes")
			e.uintv(p.Writes)
			e.key(&f, "ratio")
			e.float(p.Ratio)
			e.objClose(true)
		}
		e.arrClose(!af)
	}
	e.key(&first, "cached")
	e.boolv(r.Cached)
	e.objClose(true)
}

func (e *jenc) rebalanceResponse(r *RebalanceResponse) {
	if r == nil {
		e.null()
		return
	}
	e.objOpen()
	first := true
	e.key(&first, "computation")
	e.str(r.Computation)
	e.key(&first, "alpha")
	e.float(r.Alpha)
	e.key(&first, "m_old")
	e.float(r.MOld)
	e.key(&first, "rebalanceable")
	e.boolv(r.Rebalanceable)
	if r.MNew != 0 {
		e.key(&first, "m_new")
		e.float(r.MNew)
	}
	if r.MClosedForm != 0 {
		e.key(&first, "m_closed_form")
		e.float(r.MClosedForm)
	}
	e.key(&first, "law")
	e.str(r.Law)
	if r.C != 0 {
		e.key(&first, "c")
		e.float(r.C)
	}
	if len(r.Boundaries) > 0 {
		e.key(&first, "boundaries")
		e.arrOpen()
		af := true
		for i := range r.Boundaries {
			b := &r.Boundaries[i]
			e.arrElem(&af)
			e.objOpen()
			f := true
			e.key(&f, "boundary")
			e.intv(int64(b.Boundary))
			e.key(&f, "intensity")
			e.float(b.Intensity)
			if b.RequiredWithin != 0 {
				e.key(&f, "required_within")
				e.float(b.RequiredWithin)
			}
			e.key(&f, "rebalanceable")
			e.boolv(b.Rebalanceable)
			e.objClose(true)
		}
		e.arrClose(!af)
	}
	if len(r.LevelBill) > 0 {
		e.key(&first, "level_bill")
		e.arrOpen()
		af := true
		for i := range r.LevelBill {
			l := &r.LevelBill[i]
			e.arrElem(&af)
			e.objOpen()
			f := true
			if l.Name != "" {
				e.key(&f, "name")
				e.str(l.Name)
			}
			e.key(&f, "bw")
			e.float(l.BW)
			e.key(&f, "m_old")
			e.float(l.MOld)
			e.key(&f, "m_new")
			e.float(l.MNew)
			e.key(&f, "delta")
			e.float(l.Delta)
			e.objClose(true)
		}
		e.arrClose(!af)
	}
	if r.BindingBoundary != 0 {
		e.key(&first, "binding_boundary")
		e.intv(int64(r.BindingBoundary))
	}
	if r.TotalMemory != 0 {
		e.key(&first, "total_memory")
		e.float(r.TotalMemory)
	}
	if r.TotalDelta != 0 {
		e.key(&first, "total_delta")
		e.float(r.TotalDelta)
	}
	e.objClose(true)
}

func (e *jenc) errorEnvelope(v errorEnvelope) {
	e.objOpen()
	first := true
	e.key(&first, "error")
	e.objOpen()
	f := true
	e.key(&f, "code")
	e.str(v.Error.Code)
	e.key(&f, "message")
	e.str(v.Error.Message)
	e.objClose(true)
	e.objClose(true)
}

// --- entry points ---

// appendJSONValue appends the encoding of v (indented or compact) when v is
// one of the hot response types; ok is false when v is an unknown type or
// holds a value the stdlib would refuse, in which case nothing useful was
// appended and the caller must fall back to encoding/json on the original
// dst.
func appendJSONValue(dst []byte, v any, indent bool) ([]byte, bool) {
	e := jenc{buf: dst, indent: indent}
	switch t := v.(type) {
	case *AnalyzeResponse:
		e.analyzeResponse(t)
	case *SweepResponse:
		e.sweepResponse(t)
	case *RebalanceResponse:
		e.rebalanceResponse(t)
	case errorEnvelope:
		e.errorEnvelope(t)
	default:
		return dst, false
	}
	if e.bad {
		return dst, false
	}
	return e.buf, true
}

// appendJSONBody appends the one wire encoding of a 2xx body (two-space
// indent, trailing newline) to dst: the append encoder when v is a hot
// type, encoding/json otherwise — byte-identical either way.
func appendJSONBody(dst []byte, v any) ([]byte, error) {
	if b, ok := appendJSONValue(dst, v, true); ok {
		return append(b, '\n'), nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return append(dst, buf.Bytes()...), nil
}

// appendJSONCompact appends the compact (json.Marshal) encoding of v.
func appendJSONCompact(dst []byte, v any) ([]byte, error) {
	if b, ok := appendJSONValue(dst, v, false); ok {
		return b, nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(dst, b...), nil
}

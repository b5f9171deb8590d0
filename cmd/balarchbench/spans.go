package main

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
	"time"

	"balarch/client"
	"balarch/internal/obs"
)

// traceRec is one traced operation: its spans, each parent before its
// children.
type traceRec struct {
	TraceID string `json:"trace_id"`
	Spans   []span `json:"spans"`
}

// span is one timed step of an operation.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index into Spans; -1 for a root
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

// add records a span and returns its index. Nil-safe, so untraced
// operations call it unconditionally.
func (t *traceRec) add(name string, parent int, t0, t1 time.Time) int {
	if t == nil {
		return -1
	}
	t.Spans = append(t.Spans, span{name, parent, t0.UnixNano(), t1.UnixNano()})
	return len(t.Spans) - 1
}

// serverSpan names the span of one Server-Timing entry, built once so a
// traced request allocates no names.
var serverSpan = func() map[string]string {
	m := map[string]string{}
	for st := obs.Stage(0); int(st) < obs.NumStages; st++ {
		m[st.String()] = "server." + st.String()
	}
	return m
}()

// addHTTP records one client.request span and, under it, the server spans
// the response's Server-Timing header reports. The header carries
// durations only, so the server span is centred in the round trip (the two
// loopback legs taken as equal) and its stages are laid end to end from
// its start, in the order the server recorded them.
func (t *traceRec) addHTTP(parent int, t0, t1 time.Time, resp *client.Response) {
	if t == nil {
		return
	}
	if t.TraceID == "" && len(resp.Traceparent) >= 35 {
		t.TraceID = resp.Traceparent[3:35]
	}
	id := t.add("client.request", parent, t0, t1)
	entries := strings.Split(resp.ServerTiming(), ", ")
	var total time.Duration
	for _, e := range entries {
		if name, d, ok := timingEntry(e); ok && name == "total" {
			total = d
		}
	}
	if total == 0 {
		return
	}
	s0 := t0.Add((t1.Sub(t0) - total) / 2)
	sid := t.add("server.total", id, s0, s0.Add(total))
	at := s0
	for _, e := range entries {
		name, d, ok := timingEntry(e)
		if !ok || name == "total" {
			continue
		}
		sn, known := serverSpan[name]
		if !known {
			sn = "server." + name
		}
		t.add(sn, sid, at, at.Add(d))
		at = at.Add(d)
	}
}

// timingEntry parses one Server-Timing entry, "name;dur=<ms>".
func timingEntry(e string) (string, time.Duration, bool) {
	name, dur, ok := strings.Cut(e, ";dur=")
	if !ok {
		return "", 0, false
	}
	ms, err := strconv.ParseFloat(dur, 64)
	if err != nil {
		return "", 0, false
	}
	return name, time.Duration(ms * float64(time.Millisecond)), true
}

// layer sums one span name over a traced window.
type layer struct {
	n         int64
	dur, self int64 // ns
}

// layers sums every span's duration and self time (its duration minus the
// part of it its children cover) by span name.
func layers(traces []traceRec) map[string]*layer {
	out := map[string]*layer{}
	for _, tr := range traces {
		for i, s := range tr.Spans {
			var kids [][2]int64
			for _, c := range tr.Spans[i+1:] {
				if c.Parent == i {
					kids = append(kids, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
				}
			}
			l := out[s.Name]
			if l == nil {
				l = &layer{}
				out[s.Name] = l
			}
			l.n++
			l.dur += s.End - s.Start
			l.self += s.End - s.Start - covered(kids)
		}
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, end int64
	first := true
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		if first || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
			first = false
			continue
		}
		if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

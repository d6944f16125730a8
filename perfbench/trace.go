package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made: the public-client op at the
// root, and under it, for sampled ops, the benchmark's own calls into
// single layers on the same inputs.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index in the same client's log, -1 for a root
	Op     int64  `json:"op"`
}

// spanLog keeps one client's spans in memory; they are written out when
// the run ends. A disabled log records nothing and never reads the clock.
type spanLog struct {
	on    bool
	base  time.Time
	spans []span
}

func newSpanLog(on bool) *spanLog { return &spanLog{on: on, base: time.Now()} }

func (l *spanLog) reset() { l.spans = l.spans[:0] }

// begin opens a span and returns its index (-1 when disabled).
func (l *spanLog) begin(name string, parent int32, op int64) int32 {
	if !l.on {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Start: int64(time.Since(l.base)), Parent: parent, Op: op})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) end(i int32) {
	if i >= 0 {
		l.spans[i].End = int64(time.Since(l.base))
	}
}

// timed runs f inside a child span of parent.
func (l *spanLog) timed(name string, parent int32, op int64, f func()) {
	i := l.begin(name, parent, op)
	f()
	l.end(i)
}

// selfTimes returns each span's duration minus the part of it that its
// direct children cover.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[int32(i)]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		var covered, reach int64 = 0, s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// layerTimes groups self times by span name, in nanoseconds, and checks
// that within every op the self times add up to the root's duration.
func layerTimes(logs []*spanLog) (map[string][]int64, error) {
	byName := make(map[string][]int64)
	for _, l := range logs {
		self := selfTimes(l.spans)
		sums := make(map[int64]int64)
		roots := make(map[int64]int64)
		for i, s := range l.spans {
			byName[s.Name] = append(byName[s.Name], self[i])
			sums[s.Op] += self[i]
			if s.Parent < 0 {
				roots[s.Op] = s.End - s.Start
			}
		}
		for op, d := range roots {
			if sums[op] != d {
				return nil, fmt.Errorf("op %d: self times sum to %d ns, root span lasts %d ns", op, sums[op], d)
			}
		}
	}
	for _, v := range byName {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	}
	return byName, nil
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"spitz/internal/obs"
)

// obsWindow holds the process-global registry's state at the start of a
// measured window, so the window's own counter and histogram deltas can
// be read at its end. The benchmark runs one workload per process and
// closes every earlier server and database before a window opens, so the
// deltas are this window's traffic alone.
type obsWindow struct {
	counters map[string]float64
	hists    map[string]obs.HistSnapshot
}

// histNames lists every registered histogram series whose base name is
// base (with or without a label set).
func histNames(base string) []string {
	var out []string
	for _, m := range obs.Default.Flat() {
		name, ok := strings.CutPrefix(m.Name, base+"_count")
		if ok && (name == "" || name[0] == '{') {
			out = append(out, base+name)
		}
	}
	return out
}

// openWindow also collects the garbage set-up left (earlier set-up
// repetitions' databases among it), so the window does not pay for it.
func openWindow() *obsWindow {
	runtime.GC()
	w := &obsWindow{counters: make(map[string]float64), hists: make(map[string]obs.HistSnapshot)}
	for _, m := range obs.Default.Flat() {
		w.counters[m.Name] = m.Value
	}
	for _, b := range histBases {
		for _, n := range histNames(b) {
			w.hists[n] = obs.Default.Histogram(n).Snapshot()
		}
	}
	return w
}

// counter returns how far every series named base (any label set) moved
// since the window opened.
func (w *obsWindow) counter(base string) float64 {
	var d float64
	for _, m := range obs.Default.Flat() {
		if m.Name == base || strings.HasPrefix(m.Name, base+"{") {
			d += m.Value - w.counters[m.Name]
		}
	}
	return d
}

// histQuantile merges the window's deltas of every series named base and
// reads its q-quantile the way the registry does: linear interpolation
// inside the matched power-of-two bucket.
func (w *obsWindow) histQuantile(base string, q float64) float64 {
	var buckets []uint64
	var total uint64
	for _, n := range histNames(base) {
		now := obs.Default.Histogram(n).Snapshot()
		before := w.hists[n]
		if buckets == nil {
			buckets = make([]uint64, len(now.Buckets))
		}
		for i := range now.Buckets {
			d := now.Buckets[i] - before.Buckets[i]
			buckets[i] += d
			total += d
		}
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var seen float64
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		if seen+float64(n) >= target {
			if i == 0 {
				return 0
			}
			lo := float64(uint64(1) << (i - 1))
			return lo + lo*(target-seen)/float64(n)
		}
		seen += float64(n)
	}
	return float64(uint64(1) << (len(buckets) - 1))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkOps compares the window's per-op request counters with the
// requests the benchmark sent, op by op, over every op the server counts:
// an op missing from want must not have moved at all. Any difference
// means the deltas carry traffic from outside the window or the counters
// miss requests, and is reported as a failed check.
//
// The public clients' consistency requests are the one count the
// benchmark can bound but not know: a client fetches a consistency proof
// when a verified read's digest differs from its trusted one, and that
// shows only when the fetch moved its trust. So consistency may exceed
// want by at least pub.lo (the trusted digests public calls moved) and at
// most pub.hi (one per shard a verified read reached).
//
// The server counts a request only after writing its response, so the
// last replies of the window can arrive before their counts: a
// difference is reported only if it outlasts settleTime.
func (w *obsWindow) checkOps(want map[string]int64, pub opRange) []string {
	const base = `spitz_wire_ops_total{op="`
	deadline := time.Now().Add(settleTime)
	for {
		var bad []string
		seen := map[string]bool{}
		for _, m := range obs.Default.Flat() {
			op, ok := strings.CutPrefix(m.Name, base)
			if !ok {
				continue
			}
			op = strings.TrimSuffix(op, `"}`)
			seen[op] = true
			r := opRange{want[op], want[op]}
			if op == "consistency" {
				r = opRange{r.lo + pub.lo, r.hi + pub.hi}
			}
			if got := int64(m.Value - w.counters[m.Name]); got < r.lo || got > r.hi {
				bad = append(bad, fmt.Sprintf("spitz_wire_ops_total{op=%q} moved by %d, the benchmark sent %d to %d", op, got, r.lo, r.hi))
			}
		}
		for op := range want {
			if !seen[op] {
				bad = append(bad, fmt.Sprintf("spitz_wire_ops_total{op=%q} is not counted", op))
			}
		}
		if len(bad) == 0 || time.Now().After(deadline) {
			sort.Strings(bad)
			return bad
		}
		time.Sleep(time.Millisecond)
	}
}

// opRange is a number of requests known to lie in [lo, hi].
type opRange struct{ lo, hi int64 }

const settleTime = 2 * time.Second

package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"syscall"
	"time"

	"spitz"
)

// opKind names one operation of a workload's mix and says which
// end-to-end latency it feeds.
type opKind struct {
	name  string
	class string // "read" or "commit"
}

// errWrong marks a result that contradicts the model: the run is then
// incorrect, not merely short of an operation.
var errWrong = errors.New("wrong result")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

// tally is one op kind's counts and latencies (nanoseconds).
type tally struct {
	attempted, failed int64
	lat               []int64
}

// clientState is what one closed-loop client owns: its generator, its
// span log and its tallies. Nothing in it is shared between clients.
type clientState struct {
	id     int
	rng    *rand.Rand
	spans  *spanLog
	tally  []tally
	errs   []string
	wrong  bool
	nextOp int64
	root   int32         // span of the op in flight
	lat    time.Duration // latency of the op's public-client call
	// trust appends the public client's trusted digests (one per shard)
	// to dst; advances counts how many of them moved during public calls.
	trust      func(dst []spitz.Digest) []spitz.Digest
	advances   int64
	before, at []spitz.Digest
}

// public times the op's call into the public client API, in a span of
// its own; the op's latency is this call alone, not the benchmark's
// checks around it.
func (c *clientState) public(name string, op int64, f func()) {
	c.before = c.trust(c.before[:0])
	i := c.spans.begin(name, c.root, op)
	t0 := time.Now()
	f()
	c.lat = time.Since(t0)
	c.spans.end(i)
	c.at = c.trust(c.at[:0])
	for j := range c.at {
		if c.at[j] != c.before[j] {
			c.advances++
		}
	}
}

func (c *clientState) record(k int, d time.Duration, err error) {
	t := &c.tally[k]
	t.attempted++
	t.lat = append(t.lat, int64(d))
	if err != nil {
		t.failed++
		if errors.Is(err, errWrong) || isTampered(err) {
			c.wrong = true
		}
		if len(c.errs) < 5 {
			c.errs = append(c.errs, err.Error())
		}
	}
}

// loop runs a closed loop: each client sends its next operation only
// after the previous one returned and was checked. Every client works
// through whole rounds — a fixed multiset of op kinds, shuffled from the
// client's generator — so each kind's share of the attempted operations
// is the same in every run. A client stops after a round once more
// returns true for the number of rounds it has completed.
type loop struct {
	kinds   []opKind
	round   []int // op kinds of one round
	clients []*clientState
	// do performs and checks one operation; op identifies it in spans.
	do func(c *clientState, k int, op int64) error
	// cpu is the process CPU time the last run used.
	cpu time.Duration
}

func newLoop(kinds []opKind, round []int, seed int64, clients int, trace bool, do func(*clientState, int, int64) error) *loop {
	l := &loop{kinds: kinds, round: round, do: do}
	for i := 0; i < clients; i++ {
		c := &clientState{
			id:    i,
			rng:   rand.New(rand.NewSource(seed*7919 + int64(i) + 1)),
			tally: make([]tally, len(kinds)),
			spans: newSpanLog(trace),
		}
		l.clients = append(l.clients, c)
	}
	return l
}

// run drives every client until more says stop and returns the wall time.
func (l *loop) run(more func(rounds int) bool) time.Duration {
	cpu0 := processCPU()
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range l.clients {
		wg.Add(1)
		go func(c *clientState) {
			defer wg.Done()
			order := append([]int(nil), l.round...)
			roots := make([]string, len(l.kinds))
			for k, kind := range l.kinds {
				roots[k] = "op." + kind.name
			}
			for rounds := 0; more(rounds); rounds++ {
				c.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				for _, k := range order {
					op := int64(c.id)<<40 | c.nextOp
					c.nextOp++
					root := c.spans.begin(roots[k], -1, op)
					c.root, c.lat = root, 0
					err := l.do(c, k, op)
					c.record(k, c.lat, err)
					c.spans.end(root)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	l.cpu = processCPU() - cpu0
	return wall
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// reset clears tallies and spans, keeping generators and model state.
func (l *loop) reset() {
	for _, c := range l.clients {
		c.tally = make([]tally, len(l.kinds))
		c.advances = 0
		c.spans.reset()
	}
}

// until returns a stop rule for a wall-clock deadline.
func until(d time.Duration) func(int) bool {
	deadline := time.Now().Add(d)
	return func(int) bool { return time.Now().Before(deadline) }
}

// rounds returns a stop rule for a fixed number of rounds per client.
func rounds(n int) func(int) bool { return func(r int) bool { return r < n } }

// summary merges the clients' tallies.
type summary struct {
	attempted, failed int64
	perKind           []tally
	advances          int64 // trusted digests the public calls moved
	wrong             bool
	errs              []string
}

func (l *loop) summary() summary {
	s := summary{perKind: make([]tally, len(l.kinds))}
	for _, c := range l.clients {
		for k, t := range c.tally {
			p := &s.perKind[k]
			p.attempted += t.attempted
			p.failed += t.failed
			p.lat = append(p.lat, t.lat...)
		}
		s.wrong = s.wrong || c.wrong
		s.errs = append(s.errs, c.errs...)
	}
	for _, t := range s.perKind {
		s.attempted += t.attempted
		s.failed += t.failed
	}
	for _, c := range l.clients {
		s.advances += c.advances
	}
	return s
}

// latencies returns every latency of the kinds in class, sorted.
func (s summary) latencies(kinds []opKind, class string) []int64 {
	var out []int64
	for k, t := range s.perKind {
		if kinds[k].class == class {
			out = append(out, t.lat...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// readMix is the q-quantile of each read kind's latency, in
// microseconds, weighted by the kind's share of the reads. Every read
// kind feeds it in proportion to how often the mix issues it; the shares
// are the same in every run because clients work through whole rounds.
func (s summary) readMix(kinds []opKind, q float64) float64 {
	var reads int64
	for k, t := range s.perKind {
		if kinds[k].class == "read" {
			reads += t.attempted
		}
	}
	var mix float64
	for k, t := range s.perKind {
		if kinds[k].class == "read" {
			mix += float64(t.attempted) / float64(reads) * usQ(s.kindLatencies(k), q)
		}
	}
	return mix
}

// kindLatencies returns one kind's latencies, sorted.
func (s summary) kindLatencies(k int) []int64 {
	out := append([]int64(nil), s.perKind[k].lat...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile reads the q-quantile of sorted samples (nearest rank).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// usQ is quantile in microseconds.
func usQ(sorted []int64, q float64) float64 { return quantile(sorted, q) / 1e3 }

// median of float samples.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

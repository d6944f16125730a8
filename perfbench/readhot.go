package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"spitz"
)

// read-hot: an in-memory database of hotRows rows served over loopback
// TCP; two clients run 85% verified point reads on Zipf-skewed keys, 10%
// verified 51-row pk ranges with uniform starts and 5% single-cell
// writes to note.
const (
	hotRows      = 100_000
	hotRangeRows = 51
	hotZipfS     = 1.1
	hotWarmup    = 100 // rounds per client before the window opens
	hotSetupReps = 3
	probeEvery   = 8 // traced runs probe one op in this many
)

var hotKinds = []opKind{{"get", "read"}, {"range", "read"}, {"apply", "commit"}}

// hotRound is one round: 17 gets, 2 ranges, 1 write.
var hotRound = repeatKinds(17, 2, 1)

// repeatKinds builds a round holding counts[k] ops of kind k.
func repeatKinds(counts ...int) []int {
	var r []int
	for k, n := range counts {
		for i := 0; i < n; i++ {
			r = append(r, k)
		}
	}
	return r
}

type hotEnv struct {
	m       *model
	db      *spitz.DB
	srv     *server
	cls     []*spitz.Client
	probes  []*prober
	zipf    []*rand.Zipf
	hotPerm []int
	lp      *loop
}

func (e *hotEnv) close() {
	for _, c := range e.cls {
		c.Close()
	}
	for _, p := range e.probes {
		p.wc.Close()
	}
	if e.srv != nil {
		e.srv.stop()
	}
	e.db.Close()
}

func setupReadHot(cfg config) (*hotEnv, error) {
	e := &hotEnv{m: newModel(cfg.seed, hotRows)}
	e.db = spitz.Open(spitz.Options{})
	if err := e.m.load(func(s string, p []spitz.Put) error { _, err := e.db.Apply(s, p); return err }); err != nil {
		e.close()
		return nil, err
	}
	srv, err := serve(e.db.Serve)
	if err != nil {
		e.close()
		return nil, err
	}
	e.srv = srv
	e.hotPerm = rand.New(rand.NewSource(cfg.seed ^ 0x5eed)).Perm(hotRows)
	e.lp = newLoop(hotKinds, hotRound, cfg.seed, clients, cfg.trace, e.op)
	for _, c := range e.lp.clients {
		cl, err := spitz.Dial("tcp", srv.addr)
		if err != nil {
			e.close()
			return nil, err
		}
		e.cls = append(e.cls, cl)
		c.trust = clientTrust(cl)
		e.zipf = append(e.zipf, rand.NewZipf(c.rng, hotZipfS, 1, hotRows-1))
		if cfg.trace {
			p, err := newProber(srv.addr)
			if err != nil {
				e.close()
				return nil, err
			}
			e.probes = append(e.probes, p)
		}
	}
	e.lp.run(rounds(hotWarmup))
	if s := e.lp.summary(); s.failed > 0 {
		e.close()
		return nil, fmt.Errorf("read-hot warm-up: %d failed ops: %v", s.failed, s.errs)
	}
	e.lp.reset()
	resetCounts(e.probes)
	return e, nil
}

func (e *hotEnv) op(c *clientState, k int, op int64) error {
	m, cl := e.m, e.cls[c.id]
	probe := c.spans.on && op%probeEvery == 0
	switch k {
	case 0: // verified point read on a Zipf-skewed key
		i := e.hotPerm[e.zipf[c.id].Uint64()]
		pk := pkOf(i)
		before := m.acked[i].Load()
		var v []byte
		var found bool
		var err error
		d0 := cl.Verifier().Digest()
		c.public("public.get", op, func() { v, found, err = cl.GetVerified(table, colNote, pk) })
		if err != nil {
			return err
		}
		if !found {
			return wrongf("row %d not found", i)
		}
		if err := m.checkCell(i, colNote, v, before); err != nil {
			return wrongf("%v", err)
		}
		if probe {
			return probePoint(c, op, e.probes[c.id], e.db, cl, m, i, d0)
		}
		return nil
	case 1: // verified pk range with a uniform start
		lo := c.rng.Intn(hotRows - hotRangeRows + 1)
		acked := m.ackedRange(lo, hotRangeRows)
		var cells []spitz.Cell
		var err error
		c.public("public.range", op, func() {
			cells, err = cl.RangePKVerified(table, colNote, pkOf(lo), pkOf(lo+hotRangeRows))
		})
		if err != nil {
			return err
		}
		if err := m.checkRange(cells, colNote, lo, hotRangeRows, acked); err != nil {
			return err
		}
		if probe {
			return e.probeRange(c, op, lo)
		}
		return nil
	default: // single-cell write to note of a hot key this client owns
		i := e.hotPerm[e.zipf[c.id].Uint64()]
		if i%clients != c.id {
			i ^= 1
		}
		return writeNote(c, op, m, i, func(p []spitz.Put) error {
			_, err := cl.Apply("note", p)
			return err
		})
	}
}

// writeNote writes the next revision of row i's note and records it as
// acknowledged once the commit returns.
func writeNote(c *clientState, op int64, m *model, i int, apply func([]spitz.Put) error) error {
	rev := m.issued[i].Add(1)
	var err error
	c.public("public.apply", op, func() {
		err = apply([]spitz.Put{{Table: table, Column: colNote, PK: pkOf(i), Value: m.value(i, colNote, rev)}})
	})
	if err != nil {
		return err
	}
	m.acked[i].Store(rev)
	return nil
}

func (e *hotEnv) probeRange(c *clientState, op int64, lo int) error {
	p := e.probes[c.id]
	acked := e.m.ackedRange(lo, hotRangeRows)
	cells, err := p.probeRange(c, op, colNote, pkOf(lo), pkOf(lo+hotRangeRows))
	if err != nil {
		return err
	}
	if err := e.m.checkRange(cells, colNote, lo, hotRangeRows, acked); err != nil {
		return err
	}
	c.spans.timed("ledger.prove_range", c.root, op, func() {
		_, err = e.db.RangePKVerified(table, colNote, pkOf(lo), pkOf(lo+hotRangeRows))
	})
	return err
}

// setupTimes are the seconds each set-up repetition took: wall clock and
// the process CPU time it used.
type setupTimes struct{ wall, cpu []float64 }

// setupReps builds the environment reps times, closing all but the last,
// and returns it with the set-up time of each repetition. Each
// repetition starts after the garbage of the one before is collected.
func setupReps[E interface{ close() }](reps int, build func() (E, error)) (E, setupTimes, error) {
	var env E
	var times setupTimes
	for r := 0; r < reps; r++ {
		runtime.GC()
		t0, c0 := time.Now(), processCPU()
		e, err := build()
		if err != nil {
			return env, times, err
		}
		times.wall = append(times.wall, time.Since(t0).Seconds())
		times.cpu = append(times.cpu, (processCPU() - c0).Seconds())
		if r < reps-1 {
			e.close()
		} else {
			env = e
		}
	}
	return env, times, nil
}

func runReadHot(cfg config) (*outcome, error) {
	e, setup, err := setupReps(hotSetupReps, func() (*hotEnv, error) { return setupReadHot(cfg) })
	if err != nil {
		return nil, err
	}
	defer e.close()
	w := openWindow()
	wall := e.lp.run(until(time.Duration(cfg.seconds) * time.Second))
	sum := e.lp.summary()
	out := &outcome{kinds: hotKinds, sum: sum, wall: wall, cpu: e.lp.cpu, setup: setup, metrics: map[string]float64{}}
	sent := probeSent(e.probes)
	sent["get-verified"] += sum.perKind[0].attempted
	sent["range-verified"] += sum.perKind[1].attempted
	sent["put"] += sum.perKind[2].attempted
	out.wrong = w.checkOps(sent, opRange{sum.advances, sum.perKind[0].attempted + sum.perKind[1].attempted})
	if cfg.trace {
		// Each write commits one note cell.
		writes := float64(sum.perKind[2].attempted)
		out.metrics = counterMetrics(w, writes*float64(7+noteLen))
		addProbeMetrics(out.metrics, e.probes)
		out.spans = spanLogs(e.lp)
	}
	return out, nil
}

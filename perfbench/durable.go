package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"spitz"
)

// durable-write: a durable database on the disk node store with a 1 MiB
// node cache and an fsync per commit, preloaded with durRows rows (far
// more than the cache holds). Two clients run 80% full-row writes and
// 20% verified point reads, both on uniform keys, for a fixed number of
// rounds that spans several checkpoints, so the state at the end does
// not depend on how fast the run went. The database is then
// checkpointed, closed, reopened and checked.
const (
	durRows         = 100_000
	durCheckpoint   = 2048 // blocks between checkpoints
	durWALSegment   = 1 << 20
	durWarmup       = 40 // rounds per client
	durSetupReps    = 3
	durRoundsPerSec = 70 // rounds per client per second of --seconds
	durVerifyChunk  = 2000
)

var durKinds = []opKind{{"get", "read"}, {"apply", "commit"}}

// durRound is one round: 4 full-row writes and 1 read.
var durRound = repeatKinds(1, 4)

func durOptions() spitz.Options {
	return spitz.Options{
		Sync:                  spitz.SyncAlways,
		Store:                 spitz.StoreDisk,
		NodeCacheMB:           1,
		CheckpointInterval:    time.Hour, // checkpoints by block count only
		CheckpointEveryBlocks: durCheckpoint,
		WALSegmentSize:        durWALSegment,
	}
}

type durEnv struct {
	dir    string
	m      *model
	db     *spitz.DB
	srv    *server
	cls    []*spitz.Client
	probes []*prober
	lp     *loop
	d0     spitz.Digest // digest at the end of set-up
	user   []int64      // pk and value bytes each client committed
}

func (e *durEnv) stopServing() {
	for _, c := range e.cls {
		c.Close()
	}
	for _, p := range e.probes {
		p.wc.Close()
	}
	e.cls, e.probes = nil, nil
	if e.srv != nil {
		e.srv.stop()
		e.srv = nil
	}
}

func (e *durEnv) close() {
	e.stopServing()
	if e.db != nil {
		e.db.Close()
	}
	os.RemoveAll(e.dir)
}

func setupDurable(cfg config, rep int) (*durEnv, error) {
	e := &durEnv{dir: filepath.Join(cfg.work, fmt.Sprintf("durable-%d", rep)), m: newModel(cfg.seed, durRows)}
	if err := os.RemoveAll(e.dir); err != nil {
		return nil, err
	}
	db, err := spitz.OpenDir(e.dir, durOptions())
	if err != nil {
		return nil, err
	}
	e.db = db
	if err := e.m.load(func(s string, p []spitz.Put) error { _, err := db.Apply(s, p); return err }); err != nil {
		e.close()
		return nil, err
	}
	if e.srv, err = serve(db.Serve); err != nil {
		e.close()
		return nil, err
	}
	e.lp = newLoop(durKinds, durRound, cfg.seed, clients, cfg.trace, e.op)
	e.user = make([]int64, clients)
	for _, c := range e.lp.clients {
		cl, err := spitz.Dial("tcp", e.srv.addr)
		if err != nil {
			e.close()
			return nil, err
		}
		e.cls = append(e.cls, cl)
		c.trust = clientTrust(cl)
		if cfg.trace {
			p, err := newProber(e.srv.addr)
			if err != nil {
				e.close()
				return nil, err
			}
			e.probes = append(e.probes, p)
		}
	}
	e.lp.run(rounds(durWarmup))
	if s := e.lp.summary(); s.failed > 0 {
		e.close()
		return nil, fmt.Errorf("durable-write warm-up: %d failed ops: %v", s.failed, s.errs)
	}
	e.lp.reset()
	resetCounts(e.probes)
	e.user = make([]int64, clients)
	// The measured phase starts from a checkpointed state, so the growth
	// it causes is its own.
	if err := db.Checkpoint(); err != nil {
		e.close()
		return nil, err
	}
	e.d0 = db.Digest()
	return e, nil
}

func (e *durEnv) op(c *clientState, k int, op int64) error {
	m, cl := e.m, e.cls[c.id]
	if k == 0 { // verified point read on a uniform key
		i := c.rng.Intn(durRows)
		before := m.acked[i].Load()
		d0 := cl.Verifier().Digest()
		var v []byte
		var found bool
		var err error
		c.public("public.get", op, func() { v, found, err = cl.GetVerified(table, colNote, pkOf(i)) })
		if err != nil {
			return err
		}
		if !found {
			return wrongf("row %d not found", i)
		}
		if err := m.checkCell(i, colNote, v, before); err != nil {
			return wrongf("%v", err)
		}
		if c.spans.on && op%probeEvery == 0 {
			return probePoint(c, op, e.probes[c.id], e.db, cl, m, i, d0)
		}
		return nil
	}
	// Full-row write of a uniform key this client owns.
	i := c.rng.Intn(durRows/clients)*clients + c.id
	rev := m.issued[i].Add(1)
	puts := m.rowPuts(i, rev)
	var err error
	c.public("public.apply", op, func() { _, err = cl.Apply("row", puts) })
	if err != nil {
		return err
	}
	m.acked[i].Store(rev)
	e.user[c.id] += userBytes(puts)
	return nil
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

func runDurableWrite(cfg config) (*outcome, error) {
	rep := 0
	e, setup, err := setupReps(durSetupReps, func() (*durEnv, error) { rep++; return setupDurable(cfg, rep) })
	if err != nil {
		return nil, err
	}
	defer e.close()
	size0, err := dirSize(e.dir)
	if err != nil {
		return nil, err
	}
	w := openWindow()
	wall := e.lp.run(rounds(cfg.seconds * durRoundsPerSec))
	sum := e.lp.summary()
	out := &outcome{kinds: durKinds, sum: sum, wall: wall, cpu: e.lp.cpu, setup: setup, metrics: map[string]float64{}}
	sent := probeSent(e.probes)
	sent["get-verified"] += sum.perKind[0].attempted
	sent["put"] += sum.perKind[1].attempted
	out.wrong = w.checkOps(sent, opRange{sum.advances, sum.perKind[0].attempted})

	var user int64
	for _, u := range e.user {
		user += u
	}
	if cfg.trace {
		out.metrics = counterMetrics(w, float64(user))
		addProbeMetrics(out.metrics, e.probes)
		out.spans = spanLogs(e.lp)
	}
	e.stopServing()
	st := e.db.Stats()
	if st.WAL != nil {
		// The blocks the log still holds at the end of the window: what a
		// follower could resume from without a snapshot, not what a reopen
		// replays (the timed checkpoint below leaves nothing to replay).
		out.metrics["wal.retained_blocks"] = float64(st.Height - st.WAL.OldestRetainedHeight)
	}
	dEnd := e.db.Digest()
	t0 := time.Now()
	if err := e.db.Checkpoint(); err != nil {
		return nil, err
	}
	out.metrics["durable.checkpoint_s"] = time.Since(t0).Seconds()
	if err := e.db.Close(); err != nil {
		return nil, err
	}
	e.db = nil
	size1, err := dirSize(e.dir)
	if err != nil {
		return nil, err
	}
	out.metrics["durable.bytes_per_user_byte"] = ratio(float64(size1-size0), float64(user))

	reopen, wrong, err := e.reopenAndCheck(dEnd)
	if err != nil {
		return nil, err
	}
	out.metrics["durable.reopen_s"] = reopen
	out.wrong = append(out.wrong, wrong...)
	return out, nil
}

// reopenAndCheck reopens the closed directory, times it until the first
// verified read is answered, and checks the reopened state: the same
// digest as before Close, the set-up digest a proven prefix of it, and
// every row at its last acknowledged revision, read back verified.
func (e *durEnv) reopenAndCheck(dEnd spitz.Digest) (float64, []string, error) {
	t0 := time.Now()
	db, err := spitz.OpenDir(e.dir, durOptions())
	if err != nil {
		return 0, nil, err
	}
	e.db = db
	v := spitz.NewVerifier()
	if err := v.Advance(dEnd, spitz.ConsistencyProof{}); err != nil {
		return 0, nil, err
	}
	res, err := db.GetVerified(table, colNote, pkOf(0))
	if err != nil {
		return 0, nil, err
	}
	if err := v.VerifyNow(res.Proof); err != nil {
		return 0, []string{fmt.Sprintf("first read after reopen: %v", err)}, nil
	}
	reopen := time.Since(t0).Seconds()

	var wrong []string
	if d := db.Digest(); d != dEnd {
		wrong = append(wrong, fmt.Sprintf("reopened digest %d/%x, closed at %d/%x", d.Height, d.Root[:4], dEnd.Height, dEnd.Root[:4]))
	}
	cons, err := db.ConsistencyProof(e.d0)
	if err != nil {
		wrong = append(wrong, fmt.Sprintf("consistency proof from set-up digest: %v", err))
	} else {
		v0 := spitz.NewVerifier()
		if err := v0.Advance(e.d0, spitz.ConsistencyProof{}); err != nil {
			return 0, nil, err
		}
		if err := v0.Advance(dEnd, cons); err != nil {
			wrong = append(wrong, fmt.Sprintf("set-up digest is not a prefix: %v", err))
		}
	}
	for _, col := range []string{colBal, colRegion, colNote} {
		for lo := 0; lo < durRows && len(wrong) < 5; lo += durVerifyChunk {
			n := min(durVerifyChunk, durRows-lo)
			res, err := db.RangePKVerified(table, col, pkOf(lo), pkOf(lo+n))
			if err != nil {
				return 0, nil, err
			}
			if err := v.VerifyNow(res.Proof); err != nil {
				wrong = append(wrong, fmt.Sprintf("range %s [%d,%d): %v", col, lo, lo+n, err))
				continue
			}
			cells, err := res.Proof.Cells()
			if err != nil {
				return 0, nil, err
			}
			acked := e.m.ackedRange(lo, n)
			if err := e.m.checkRange(cells, col, lo, n, acked); err != nil {
				wrong = append(wrong, err.Error())
				continue
			}
			for j, c := range cells {
				if rev, _ := e.m.revisionOf(lo+j, col, c.Value); rev != acked[j] {
					wrong = append(wrong, fmt.Sprintf("row %d %s: revision %d after reopen, acknowledged %d", lo+j, col, rev, acked[j]))
					break
				}
			}
		}
	}
	return reopen, wrong, nil
}

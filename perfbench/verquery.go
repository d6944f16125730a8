package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"spitz"
	"spitz/internal/ledger"
	"spitz/internal/proof"
	"spitz/internal/query"
)

// verified-query: a 2-shard in-memory cluster with the inverted index,
// holding vqRows rows and served over loopback TCP. Two sharded clients
// run verified SELECTs — pk ranges, SUM/COUNT aggregates, region
// lookups through the inverted index and point reads — and writes to
// note, half single-row UPDATEs and half two-row cross-shard Applies.
const (
	vqRows      = 20_000
	vqShards    = 2
	vqRangeRows = 21
	vqAggRows   = 101
	vqWarmup    = 10 // rounds per client
	vqSetupReps = 3
)

var vqKinds = []opKind{
	{"range", "read"}, {"sum", "read"}, {"count", "read"}, {"lookup", "read"}, {"point", "read"},
	{"update", "commit"}, {"apply2pc", "commit"},
}

// vqRound is one round of 40: 16 ranges, 4 sums, 4 counts, 8 lookups,
// 6 point reads, 1 UPDATE and 1 cross-shard Apply.
var vqRound = repeatKinds(16, 4, 4, 8, 6, 1, 1)

// vqPlanSpan names the public span of each SELECT kind by its plan.
var vqPlanSpan = []string{"public.query.range", "public.query.aggregate", "public.query.aggregate",
	"public.query.lookup", "public.query.point"}

type vqEnv struct {
	m      *model
	db     *spitz.ClusterDB
	srv    *server
	cls    []*spitz.ShardedClient
	probes []*queryProber
	lp     *loop
}

// queryProber keeps, per shard, a verifier of the benchmark's own for
// re-checking sampled SELECTs executed in-process on a shard engine.
type queryProber struct {
	vs          []*proof.Verifier
	obligations []float64
}

func (e *vqEnv) close() {
	for _, c := range e.cls {
		c.Close()
	}
	if e.srv != nil {
		e.srv.stop()
	}
	e.db.Close()
}

func setupVerifiedQuery(cfg config) (*vqEnv, error) {
	e := &vqEnv{m: newModel(cfg.seed, vqRows)}
	db, err := spitz.OpenCluster("", spitz.ClusterOptions{Shards: vqShards, MaintainInverted: true})
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
	e.lp = newLoop(vqKinds, vqRound, cfg.seed, clients, cfg.trace, e.op)
	for _, c := range e.lp.clients {
		cl, err := spitz.DialSharded("tcp", e.srv.addr)
		if err != nil {
			e.close()
			return nil, err
		}
		e.cls = append(e.cls, cl)
		c.trust = shardedTrust(cl)
		p := &queryProber{}
		for i := 0; i < vqShards; i++ {
			p.vs = append(p.vs, proof.NewVerifier())
		}
		e.probes = append(e.probes, p)
	}
	e.lp.run(rounds(vqWarmup))
	if s := e.lp.summary(); s.failed > 0 {
		e.close()
		return nil, fmt.Errorf("verified-query warm-up: %d failed ops: %v", s.failed, s.errs)
	}
	e.lp.reset()
	for _, p := range e.probes {
		p.obligations = nil
	}
	return e, nil
}

func quoted(b []byte) string { return "'" + string(b) + "'" }

func (e *vqEnv) op(c *clientState, k int, op int64) error {
	m, sc := e.m, e.cls[c.id]
	if k >= 5 {
		return e.write(c, k, op)
	}
	var stmt string
	var check func(query.Result) error
	switch k {
	case 0: // pk range of vqRangeRows rows
		lo := c.rng.Intn(vqRows - vqRangeRows + 1)
		acked := m.ackedRange(lo, vqRangeRows)
		stmt = fmt.Sprintf("SELECT balance, note FROM %s WHERE pk BETWEEN %s AND %s", table, quoted(pkOf(lo)), quoted(pkOf(lo+vqRangeRows-1)))
		check = func(r query.Result) error {
			if len(r.Rows) != vqRangeRows {
				return wrongf("range [%d,%d): %d rows", lo, lo+vqRangeRows, len(r.Rows))
			}
			for j, row := range r.Rows {
				if err := m.checkRow(lo+j, row, acked[j], colBal, colNote); err != nil {
					return err
				}
			}
			return nil
		}
	case 1, 2: // SUM or COUNT over vqAggRows rows
		lo := c.rng.Intn(vqRows - vqAggRows + 1)
		agg, want := "SUM", m.sum(lo, lo+vqAggRows)
		if k == 2 {
			agg, want = "COUNT", vqAggRows
		}
		stmt = fmt.Sprintf("SELECT %s(balance) FROM %s WHERE pk BETWEEN %s AND %s", agg, table, quoted(pkOf(lo)), quoted(pkOf(lo+vqAggRows-1)))
		check = func(r query.Result) error {
			if !r.HasAgg || r.AggValue != want {
				return wrongf("%s [%d,%d) = %d, want %d", agg, lo, lo+vqAggRows, r.AggValue, want)
			}
			return nil
		}
	case 3: // equality lookup on region through the inverted index
		reg := c.rng.Intn(regions)
		rows := m.byRegion[reg]
		acked := make([]uint32, len(rows))
		for j, i := range rows {
			acked[j] = m.acked[i].Load()
		}
		stmt = fmt.Sprintf("SELECT note FROM %s WHERE region = '%s'", table, regionName(reg))
		check = func(r query.Result) error {
			if len(r.Rows) != len(rows) {
				return wrongf("lookup %s: %d rows, want %d", regionName(reg), len(r.Rows), len(rows))
			}
			got := append([]query.Row(nil), r.Rows...)
			sort.Slice(got, func(a, b int) bool { return bytes.Compare(got[a].PK, got[b].PK) < 0 })
			for j, row := range got {
				if err := m.checkRow(rows[j], row, acked[j], colNote); err != nil {
					return err
				}
			}
			return nil
		}
	default: // point read of every column
		i := c.rng.Intn(vqRows)
		acked := m.acked[i].Load()
		stmt = fmt.Sprintf("SELECT balance, region, note FROM %s WHERE pk = %s", table, quoted(pkOf(i)))
		check = func(r query.Result) error {
			if len(r.Rows) != 1 {
				return wrongf("point %d: %d rows", i, len(r.Rows))
			}
			return m.checkRow(i, r.Rows[0], acked, colBal, colRegion, colNote)
		}
	}
	var res query.Result
	var err error
	c.public(vqPlanSpan[k], op, func() { res, err = sc.Query(stmt) })
	if err != nil {
		return err
	}
	if err := check(res); err != nil {
		return err
	}
	if c.spans.on && op%probeEvery == 0 {
		return e.probe(c, op, stmt, check)
	}
	return nil
}

// checkRow checks one result row of row i: its pk and each named
// column against the model.
func (m *model) checkRow(i int, row query.Row, acked uint32, cols ...string) error {
	if !bytes.Equal(row.PK, pkOf(i)) {
		return wrongf("row %q, want %q", row.PK, pkOf(i))
	}
	for _, col := range cols {
		v, ok := row.Columns[col]
		if !ok {
			return wrongf("row %d: column %s missing", i, col)
		}
		floor := acked
		if col != colNote {
			floor = 0 // only note is ever rewritten
		}
		if err := m.checkCell(i, col, v, floor); err != nil {
			return wrongf("%v", err)
		}
	}
	return nil
}

// write commits the next revision of note: one row through an UPDATE
// statement, or two rows on different shards through one Apply, which
// the cluster commits with two-phase commit.
func (e *vqEnv) write(c *clientState, k int, op int64) error {
	m, sc := e.m, e.cls[c.id]
	own := func() int { return c.rng.Intn(vqRows/clients)*clients + c.id }
	a := own()
	if k == 5 {
		rev := m.issued[a].Add(1)
		stmt := fmt.Sprintf("UPDATE %s SET note = %s WHERE pk = %s", table, quoted(m.value(a, colNote, rev)), quoted(pkOf(a)))
		var res query.Result
		var err error
		c.public("public.update", op, func() { res, err = sc.Query(stmt) })
		if err != nil {
			return err
		}
		if res.RowsAffected != 1 {
			return wrongf("update row %d: %d rows affected", a, res.RowsAffected)
		}
		m.acked[a].Store(rev)
		return nil
	}
	b := own()
	for sc.ShardFor(pkOf(b)) == sc.ShardFor(pkOf(a)) {
		b = own()
	}
	ra, rb := m.issued[a].Add(1), m.issued[b].Add(1)
	puts := []spitz.Put{
		{Table: table, Column: colNote, PK: pkOf(a), Value: m.value(a, colNote, ra)},
		{Table: table, Column: colNote, PK: pkOf(b), Value: m.value(b, colNote, rb)},
	}
	var err error
	c.public("public.apply2pc", op, func() { _, err = sc.Apply("pair", puts) })
	if err != nil {
		return err
	}
	m.acked[a].Store(ra)
	m.acked[b].Store(rb)
	return nil
}

// probe repeats a sampled SELECT layer by layer: parse and plan, the
// server's verified execution on one shard engine in-process, the
// client's batch-proof check and re-folding of the result, and for
// lookups the inverted-index call. Fan-out plans are probed on one
// shard, chosen by op.
func (e *vqEnv) probe(c *clientState, op int64, stmt string, check func(query.Result) error) error {
	p := e.probes[c.id]
	var pl query.Plan
	var err error
	c.spans.timed("query.plan", c.root, op, func() {
		var st query.Statement
		if st, err = query.Parse(stmt); err == nil {
			pl, err = query.PlanOf(st.(query.Select))
		}
	})
	if err != nil {
		return err
	}
	si := int(op/probeEvery) % vqShards
	if pl.Kind == query.PlanPoint {
		si = e.db.ShardFor([]byte(pl.Sel.PK))
	}
	eng := e.db.Engine(si)
	var vs query.VerifiedSelect
	c.spans.timed("query.server_select", c.root, op, func() { vs, err = query.ExecVerifiedSelect(eng, pl.Sel, false) })
	if err != nil {
		return err
	}
	if vs.Proof == nil {
		return wrongf("probe: shard %d returned no proof", si)
	}
	v := p.vs[si]
	if cur := v.Digest(); cur.Height == 0 {
		err = v.Advance(vs.Digest, spitz.ConsistencyProof{})
	} else if cur.Height < vs.Digest.Height {
		var d ledger.Digest
		var cons spitz.ConsistencyProof
		if d, cons, err = eng.ConsistencyUpdate(cur); err == nil {
			c.spans.timed("client.advance", c.root, op, func() { err = v.Advance(d, cons) })
		}
	}
	if err != nil {
		return err
	}
	reads := len(pl.Queries(vs.Cells))
	p.obligations = append(p.obligations, float64(reads))
	var part query.Result
	c.spans.timed("client.verify_query", c.root, op, func() {
		if err = v.VerifyBatchAsOf(*vs.Proof, vs.Digest, reads); err == nil {
			part, err = pl.ResultFromProof(vs.Cells, vs.Proof)
		}
	})
	if err != nil {
		return err
	}
	if pl.Kind == query.PlanPoint {
		if err := check(part); err != nil {
			return wrongf("probe: %v", err)
		}
	}
	if pl.Kind == query.PlanLookup {
		p := pl.Sel.Preds[0]
		c.spans.timed("inverted.lookup", c.root, op, func() { _, err = eng.LookupEqual(table, p.Column, []byte(p.Value)) })
	}
	return err
}

func runVerifiedQuery(cfg config) (*outcome, error) {
	e, setup, err := setupReps(vqSetupReps, func() (*vqEnv, error) { return setupVerifiedQuery(cfg) })
	if err != nil {
		return nil, err
	}
	defer e.close()
	w := openWindow()
	wall := e.lp.run(until(time.Duration(cfg.seconds) * time.Second))
	sum := e.lp.summary()
	out := &outcome{kinds: vqKinds, sum: sum, wall: wall, cpu: e.lp.cpu, setup: setup, metrics: map[string]float64{}}
	// Range, aggregate and lookup SELECTs fan out to every shard; point
	// SELECTs and UPDATEs are one request each.
	n := func(k int) int64 { return sum.perKind[k].attempted }
	selects := vqShards*(n(0)+n(1)+n(2)+n(3)) + n(4)
	out.wrong = w.checkOps(map[string]int64{
		"query": selects + n(5),
		"put":   n(6),
	}, opRange{sum.advances, selects})
	if cfg.trace {
		// An UPDATE commits one note cell, a cross-shard Apply two.
		cells := float64(sum.perKind[5].attempted + 2*sum.perKind[6].attempted)
		out.metrics = counterMetrics(w, cells*float64(7+noteLen))
		var obl []float64
		for _, p := range e.probes {
			obl = append(obl, p.obligations...)
		}
		out.metrics["query.obligations_per_select"] = mean(obl)
		out.spans = spanLogs(e.lp)
	}
	return out, nil
}

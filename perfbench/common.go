package main

import (
	"bytes"
	"errors"
	"net"

	"spitz"
	"spitz/internal/cellstore"
	"spitz/internal/ledger"
	"spitz/internal/proof"
	"spitz/internal/wire"
)

// clients is the number of closed-loop client connections.
const clients = 2

// server is a database served on a loopback TCP listener.
type server struct {
	ln   net.Listener
	addr string
	done chan error
}

func serve(fn func(net.Listener) error) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{ln: ln, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- fn(ln) }()
	return s, nil
}

// stop closes the listener and waits until Serve has returned, which
// also closes every connection it accepted.
func (s *server) stop() error {
	s.ln.Close()
	return <-s.done
}

// spanMetrics maps per-layer metrics to the spans whose median self time
// they report.
var spanMetrics = map[string]string{
	"client.get_p50_us":           "public.get",
	"client.range_p50_us":         "public.range",
	"client.verify_point_us":      "client.verify_point",
	"client.verify_range_us":      "client.verify_range",
	"client.advance_us":           "client.advance",
	"client.verify_query_us":      "client.verify_query",
	"wire.get_rtt_us":             "wire.get",
	"wire.do_get_verified_us":     "wire.do_get_verified",
	"ledger.prove_point_us":       "ledger.prove_point",
	"ledger.prove_range_us":       "ledger.prove_range",
	"ledger.consistency_proof_us": "ledger.consistency_proof",
	"query.plan_us":               "query.plan",
	"query.server_select_us":      "query.server_select",
	"query.point_p50_us":          "public.query.point",
	"query.range_p50_us":          "public.query.range",
	"query.aggregate_p50_us":      "public.query.aggregate",
	"query.lookup_p50_us":         "public.query.lookup",
	"inverted.lookup_us":          "inverted.lookup",
	"twopc.commit_p50_us":         "public.apply2pc",
}

// counterMetrics derives the per-layer metrics the program's own
// counters and histograms give over the window. userBytes is the pk and
// value bytes the window committed.
func counterMetrics(w *obsWindow, userBytes float64) map[string]float64 {
	m := map[string]float64{}
	ops := w.counter("spitz_wire_ops_total")
	commits := w.counter("spitz_commit_txns_total")
	m["wire.server_op_p50_us"] = w.histQuantile("spitz_wire_op_latency_ns", 0.5) / 1e3
	m["wire.resp_bytes_per_op"] = ratio(w.counter("spitz_wire_written_bytes_total"), ops)
	m["ledger.proof_build_p50_us"] = w.histQuantile("spitz_proof_build_ns", 0.5) / 1e3
	hits, misses := w.counter("spitz_proofcache_hits_total"), w.counter("spitz_proofcache_misses_total")
	m["ledger.proofcache_hit_ratio"] = ratio(hits, hits+misses)
	hits, misses = w.counter("spitz_nodecache_hits_total"), w.counter("spitz_nodecache_misses_total")
	m["postree.nodecache_hit_ratio"] = ratio(hits, hits+misses)
	m["core.commit_queue_wait_us"] = w.histQuantile("spitz_commit_queue_wait_ns", 0.5) / 1e3
	m["core.commit_ledger_us"] = w.histQuantile("spitz_commit_ledger_ns", 0.5) / 1e3
	m["core.commit_durable_wait_us"] = w.histQuantile("spitz_commit_durable_wait_ns", 0.5) / 1e3
	m["core.txns_per_block"] = ratio(commits, w.counter("spitz_commit_blocks_total"))
	m["wal.fsync_p50_us"] = w.histQuantile("spitz_wal_fsync_ns", 0.5) / 1e3
	m["wal.fsyncs_per_commit"] = ratio(w.counter("spitz_wal_fsyncs_total"), commits)
	m["wal.bytes_per_user_byte"] = ratio(w.counter("spitz_wal_append_bytes_total"), userBytes)
	hits, misses = w.counter("spitz_nodestore_cache_hits_total"), w.counter("spitz_nodestore_cache_misses_total")
	m["cas.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["cas.evictions_per_op"] = ratio(w.counter("spitz_nodestore_cache_evictions_total"), ops)
	m["cas.flushed_objects_per_commit"] = ratio(w.counter("spitz_nodestore_flushed_objects_total"), commits)
	m["twopc.prepares_per_commit"] = ratio(w.counter("spitz_twopc_prepares_total"), w.counter("spitz_twopc_commits_total"))
	return m
}

// prober makes the benchmark's own calls into single layers for a
// sampled op: the raw wire request, the client-side proof check and the
// trust advance, each in its own span. It owns a wire connection and a
// verifier of its own, so it never disturbs the public client's trust.
type prober struct {
	wc   *wire.Client
	v    *proof.Verifier
	prev ledger.Digest // the trusted digest before the last advance
	// proof sizes, appended per probe
	pointBytes, rangeBytes []float64
	advances, reads        int
	consistencies          int // consistency proofs fetched
}

func newProber(addr string) (*prober, error) {
	wc, err := wire.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &prober{wc: wc, v: proof.NewVerifier()}, nil
}

// resetCounts forgets what the prober counted during warm-up.
func resetCounts(probes []*prober) {
	for _, p := range probes {
		p.pointBytes, p.rangeBytes, p.advances, p.reads, p.consistencies = nil, nil, 0, 0, 0
	}
}

// trust advances the prober's verifier to cover digest d, fetching a
// consistency proof over the wire when the ledger has grown.
func (p *prober) trust(c *clientState, op int64, d ledger.Digest) error {
	cur := p.v.Digest()
	if cur.Height == 0 && cur.Root.IsZero() {
		return p.v.Advance(d, spitz.ConsistencyProof{})
	}
	if cur.Height >= d.Height {
		return nil
	}
	var resp wire.Response
	var err error
	p.consistencies++
	c.spans.timed("wire.do_consistency", c.root, op, func() {
		resp, err = p.wc.Do(wire.Request{Op: wire.OpConsistency, OldDigest: cur})
	})
	if err != nil {
		return err
	}
	if resp.Consistency == nil {
		return errors.New("server omitted consistency proof")
	}
	c.spans.timed("client.advance", c.root, op, func() {
		err = p.v.Advance(resp.Digest, *resp.Consistency)
	})
	p.prev = cur
	return err
}

// verify checks a point or range proof served at digest d.
func (p *prober) verify(pr ledger.Proof, d ledger.Digest) error {
	if p.v.Digest() == d {
		return p.v.VerifyNow(pr)
	}
	return p.v.VerifyAsOf(pr, d)
}

// probeGet issues the raw verified point read of row i, checks its proof
// client-side and returns the proven value.
func (p *prober) probeGet(c *clientState, op int64, col string, pk []byte) ([]byte, error) {
	var resp wire.Response
	var err error
	c.spans.timed("wire.do_get_verified", c.root, op, func() {
		resp, err = p.wc.Do(wire.Request{Op: wire.OpGetVerified, Table: table, Column: col, PK: pk})
	})
	if err != nil {
		return nil, err
	}
	if resp.Proof == nil {
		return nil, errors.New("no proof")
	}
	if err := p.trust(c, op, resp.Digest); err != nil {
		return nil, err
	}
	var cells []cellstore.Cell
	c.spans.timed("client.verify_point", c.root, op, func() {
		if err = p.verify(*resp.Proof, resp.Digest); err == nil {
			cells, err = resp.Proof.Cells()
		}
	})
	if err != nil {
		return nil, err
	}
	if resp.Proof.Point == nil || !bytes.Equal(resp.Proof.Point.Key, cellstore.CellPrefix(table, col, pk)) || len(cells) == 0 {
		return nil, wrongf("probe: proof answers a different key")
	}
	p.pointBytes = append(p.pointBytes, float64(len(ledger.AppendProof(nil, resp.Proof))))
	return cells[0].Value, nil
}

// probeRange issues the raw verified range read and checks its proof.
func (p *prober) probeRange(c *clientState, op int64, col string, lo, hi []byte) ([]cellstore.Cell, error) {
	var resp wire.Response
	var err error
	c.spans.timed("wire.do_range_verified", c.root, op, func() {
		resp, err = p.wc.Do(wire.Request{Op: wire.OpRangeVer, Table: table, Column: col, PK: lo, PKHi: hi})
	})
	if err != nil {
		return nil, err
	}
	if resp.Proof == nil {
		return nil, errors.New("no proof")
	}
	if err := p.trust(c, op, resp.Digest); err != nil {
		return nil, err
	}
	var cells []cellstore.Cell
	c.spans.timed("client.verify_range", c.root, op, func() {
		if err = p.verify(*resp.Proof, resp.Digest); err == nil {
			cells, err = resp.Proof.Cells()
		}
	})
	if err != nil {
		return nil, err
	}
	p.rangeBytes = append(p.rangeBytes, float64(len(ledger.AppendProof(nil, resp.Proof))))
	return cells, nil
}

// checkRange checks a verified range read of rows [lo, lo+n) of col.
func (m *model) checkRange(cells []cellstore.Cell, col string, lo, n int, acked []uint32) error {
	live := cells[:0:0]
	for _, c := range cells {
		if !c.Tombstone {
			live = append(live, c)
		}
	}
	if len(live) != n {
		return wrongf("range [%d,%d): %d rows", lo, lo+n, len(live))
	}
	var buf [8]byte
	for j, c := range live {
		if !bytes.Equal(c.PK, appendPK(buf[:0], lo+j)) {
			return wrongf("range row %d is %q, want %q", j, c.PK, pkOf(lo+j))
		}
		if err := m.checkCell(lo+j, col, c.Value, acked[j]); err != nil {
			return wrongf("%v", err)
		}
	}
	return nil
}

// ackedRange snapshots the acknowledged revisions of rows [lo, lo+n).
func (m *model) ackedRange(lo, n int) []uint32 {
	out := make([]uint32, n)
	for j := range out {
		out[j] = m.acked[lo+j].Load()
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// probePoint repeats a sampled point read of row i's note layer by
// layer: the raw wire request and its client-side check, the server's
// proof construction called in-process, the unverified read over the
// public client and a consistency proof from the digest the prober
// trusted before its last advance. d0 is the public client's trusted
// digest before the op, to count the reads that advanced it.
func probePoint(c *clientState, op int64, p *prober, db *spitz.DB, cl *spitz.Client, m *model, i int, d0 spitz.Digest) error {
	pk := pkOf(i)
	before := m.acked[i].Load()
	v, err := p.probeGet(c, op, colNote, pk)
	if err != nil {
		return err
	}
	if err := m.checkCell(i, colNote, v, before); err != nil {
		return wrongf("probe: %v", err)
	}
	var res spitz.VerifiedResult
	c.spans.timed("ledger.prove_point", c.root, op, func() { res, err = db.GetVerified(table, colNote, pk) })
	if err != nil {
		return err
	}
	if !res.Found {
		return wrongf("embedded read of row %d not found", i)
	}
	c.spans.timed("wire.get", c.root, op, func() { _, err = cl.Get(table, colNote, pk) })
	if err != nil {
		return err
	}
	if cl.Verifier().Digest() != d0 {
		p.advances++
	}
	p.reads++
	if p.prev.Height > 0 {
		c.spans.timed("ledger.consistency_proof", c.root, op, func() { _, err = db.ConsistencyProof(p.prev) })
	}
	return err
}

// histBases are the histograms whose window deltas counterMetrics reads;
// openWindow snapshots them.
var histBases = []string{"spitz_wire_op_latency_ns", "spitz_proof_build_ns", "spitz_commit_queue_wait_ns",
	"spitz_commit_ledger_ns", "spitz_commit_durable_wait_ns", "spitz_wal_fsync_ns"}

// addProbeMetrics adds what the probers counted: proof sizes and the
// share of sampled reads that advanced the public client's trust.
func addProbeMetrics(m map[string]float64, probes []*prober) {
	var pb, rb []float64
	var adv, reads int
	for _, p := range probes {
		pb, rb = append(pb, p.pointBytes...), append(rb, p.rangeBytes...)
		adv, reads = adv+p.advances, reads+p.reads
	}
	m["ledger.point_proof_bytes"] = mean(pb)
	m["ledger.range_proof_bytes"] = mean(rb)
	m["client.advances_per_read"] = ratio(float64(adv), float64(reads))
}

func spanLogs(l *loop) []*spanLog {
	var out []*spanLog
	for _, c := range l.clients {
		out = append(out, c.spans)
	}
	return out
}

// probeSent returns how many requests of each op the probers sent.
func probeSent(probes []*prober) map[string]int64 {
	sent := map[string]int64{}
	for _, p := range probes {
		sent["get-verified"] += int64(len(p.pointBytes))
		sent["range-verified"] += int64(len(p.rangeBytes))
		sent["get"] += int64(p.reads)
		sent["consistency"] += int64(p.consistencies)
	}
	return sent
}

// clientTrust returns a client's trusted digest, for clientState.trust.
func clientTrust(cl *spitz.Client) func([]spitz.Digest) []spitz.Digest {
	return func(dst []spitz.Digest) []spitz.Digest { return append(dst, cl.Verifier().Digest()) }
}

// shardedTrust returns a sharded client's trusted digest of every shard.
func shardedTrust(sc *spitz.ShardedClient) func([]spitz.Digest) []spitz.Digest {
	return func(dst []spitz.Digest) []spitz.Digest {
		for i := 0; i < sc.Shards(); i++ {
			dst = append(dst, sc.ShardVerifier(i).Digest())
		}
		return dst
	}
}

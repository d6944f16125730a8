package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"

	"spitz"
)

// The table every workload loads: one row per key, three columns.
const (
	table     = "acct"
	colBal    = "balance"
	colRegion = "region"
	colNote   = "note"
	noteLen   = 60
	regions   = 500  // region values; ~40 rows each at 20k rows
	loadBatch = 1000 // rows per block when loading
)

// model is the benchmark's own account of what the database must hold.
// Every value is a pure function of (seed, row, column, revision), so a
// read can be checked without a saved copy of earlier output: decode the
// revision, rebuild the value and compare. Revisions per row are tracked
// as acknowledged (the last write whose commit returned) and issued (the
// last write sent); a read is correct only if it returns a revision in
// [acknowledged before the read began, issued after it ended].
type model struct {
	rows     int
	balances []uint64
	region   []int32
	pad      []byte // note padding alphabet shift per row
	acked    []atomic.Uint32
	issued   []atomic.Uint32
	byRegion [][]int // rows per region, ascending
	prefix   []uint64
}

func newModel(seed int64, rows int) *model {
	m := &model{
		rows:     rows,
		balances: make([]uint64, rows),
		region:   make([]int32, rows),
		pad:      make([]byte, rows),
		acked:    make([]atomic.Uint32, rows),
		issued:   make([]atomic.Uint32, rows),
		byRegion: make([][]int, regions),
		prefix:   make([]uint64, rows+1),
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		m.balances[i] = uint64(r.Intn(1_000_000))
		m.region[i] = int32(r.Intn(regions))
		m.pad[i] = byte(r.Intn(26))
		m.byRegion[m.region[i]] = append(m.byRegion[m.region[i]], i)
		m.prefix[i+1] = m.prefix[i] + m.balances[i]
	}
	return m
}

func pkOf(i int) []byte { return appendPK(make([]byte, 0, 7), i) }

func appendPK(dst []byte, i int) []byte { return appendPadded(append(dst, 'k'), uint64(i), 6) }

// appendPadded appends n in decimal, zero-padded to width digits.
func appendPadded(dst []byte, n uint64, width int) []byte {
	var b [20]byte
	digits := strconv.AppendUint(b[:0], n, 10)
	for j := len(digits); j < width; j++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// value is the cell of row i, column col at revision rev.
func (m *model) value(i int, col string, rev uint32) []byte { return m.appendValue(nil, i, col, rev) }

func (m *model) appendValue(dst []byte, i int, col string, rev uint32) []byte {
	switch col {
	case colBal:
		return strconv.AppendUint(dst, uint64(rev)*10_000_000+m.balances[i], 10)
	case colRegion:
		dst = appendPadded(append(dst, 'r'), uint64(m.region[i]), 3)
		if rev > 0 {
			dst = strconv.AppendUint(append(dst, '-'), uint64(rev), 10)
		}
		return dst
	default:
		start := len(dst)
		dst = append(appendPK(dst, i), "/note/"...)
		dst = append(appendPadded(dst, uint64(rev), 8), '/')
		for j := len(dst) - start; j < noteLen; j++ {
			dst = append(dst, 'a'+byte((int(m.pad[i])+j)%26))
		}
		return dst
	}
}

func regionName(r int) string { return string(appendPadded([]byte{'r'}, uint64(r), 3)) }

// parseUint parses a decimal without allocating.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// revisionOf decodes the revision a returned cell claims and checks the
// whole value against the generator. ok is false for any value the
// model could not have produced for row i.
func (m *model) revisionOf(i int, col string, v []byte) (uint32, bool) {
	var rev uint64
	ok := true
	switch col {
	case colBal:
		var n uint64
		n, ok = parseUint(v)
		rev = n / 10_000_000
	case colRegion:
		if k := bytes.IndexByte(v, '-'); k >= 0 {
			rev, ok = parseUint(v[k+1:])
		}
	default:
		// "k000000/note/" is 13 bytes; the revision's 8 digits follow.
		ok = len(v) == noteLen
		if ok {
			rev, ok = parseUint(v[13:21])
		}
	}
	if !ok || rev > 1<<31 {
		return 0, false
	}
	var buf [64]byte
	return uint32(rev), bytes.Equal(v, m.appendValue(buf[:0], i, col, uint32(rev)))
}

// checkCell checks one read of row i, column col: the value must be one
// the generator produces for that row, at a revision no older than
// ackedBefore (snapshotted before the read was sent) and no newer than
// the row's issued revision.
func (m *model) checkCell(i int, col string, v []byte, ackedBefore uint32) error {
	rev, ok := m.revisionOf(i, col, v)
	if !ok {
		return fmt.Errorf("row %d %s: value %q is not one the generator produces", i, col, v)
	}
	if rev < ackedBefore {
		return fmt.Errorf("row %d %s: revision %d older than acknowledged %d", i, col, rev, ackedBefore)
	}
	if iss := m.issued[i].Load(); rev > iss {
		return fmt.Errorf("row %d %s: revision %d was never written (issued %d)", i, col, rev, iss)
	}
	return nil
}

// sum is the total balance of rows [lo, hi) at revision 0.
func (m *model) sum(lo, hi int) uint64 { return m.prefix[hi] - m.prefix[lo] }

// rowPuts returns every column of row i at revision rev.
func (m *model) rowPuts(i int, rev uint32) []spitz.Put {
	pk := pkOf(i)
	return []spitz.Put{
		{Table: table, Column: colBal, PK: pk, Value: m.value(i, colBal, rev)},
		{Table: table, Column: colRegion, PK: pk, Value: m.value(i, colRegion, rev)},
		{Table: table, Column: colNote, PK: pk, Value: m.value(i, colNote, rev)},
	}
}

// userBytes is the pk and value bytes of puts.
func userBytes(puts []spitz.Put) int64 {
	var n int64
	for _, p := range puts {
		n += int64(len(p.PK) + len(p.Value))
	}
	return n
}

// load commits revision 0 of every row, loadBatch rows per block.
func (m *model) load(apply func(string, []spitz.Put) error) error {
	for lo := 0; lo < m.rows; lo += loadBatch {
		var puts []spitz.Put
		for i := lo; i < min(lo+loadBatch, m.rows); i++ {
			puts = append(puts, m.rowPuts(i, 0)...)
		}
		if err := apply("load", puts); err != nil {
			return err
		}
	}
	return nil
}

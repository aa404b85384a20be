package pisa

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// KeyTable is a register array indexed by key, the §7 layout every
// replicated object lives in: one fixed-width cell per key, found by one key
// lookup plus an index — no map, no map iterator — which is what a register
// access at line rate is. What a cell holds is its user's business (a chain
// value, an EWO register's stamp and value, a change register).
//
// Keys are found through one open-addressed index (Fibonacci hash, linear
// probing, at most half full, grown by doubling). Rows are handed out in
// first-touch order and never removed, so they are always 0..Len()-1 (Sorted
// relies on it). The table holds at most capacity rows, the keys
// NewKeyTable charged SRAM for: a new key past that is refused, so what a
// peer sends cannot grow host memory without bound. Host memory grows with
// the rows touched, not with capacity.
type KeyTable struct {
	sw    *Switch
	bytes int // SRAM charged
	limit int // capacity
	width int // bytes per cell

	idx    []keyEnt // open-addressed key -> row; len is a power of two
	shift  uint     // 64 - log2(len(idx))
	keys   []uint64 // row -> key, in first-touch order
	cells  []byte   // row r's cell at r*width
	sorted []int32  // Sorted's snapshot
}

// keyEnt is one index bucket; row is stored +1 so the zero entry is empty.
type keyEnt struct {
	key uint64
	row uint32
}

// keyTableMinBuckets is the index's first allocation.
const keyTableMinBuckets = 64

// NewKeyTable allocates a keyed register array of capacity rows, each a
// cellWidth-byte cell, charging capacity*bytesPerKey bytes of SRAM: what the
// switch stores per key, which need not be the cell's host layout.
func (s *Switch) NewKeyTable(name string, capacity, bytesPerKey, cellWidth int) (*KeyTable, error) {
	if capacity <= 0 || bytesPerKey <= 0 || cellWidth <= 0 {
		return nil, fmt.Errorf("pisa: key table %q needs positive capacity, bytes per key and cell width", name)
	}
	if err := s.charge(capacity*bytesPerKey, "key table "+name); err != nil {
		return nil, err
	}
	t := &KeyTable{sw: s, bytes: capacity * bytesPerKey, limit: capacity, width: cellWidth}
	t.rehash()
	return t, nil
}

// find returns key's row, or -1 and the empty bucket that would take it. A
// key's home bucket is its Fibonacci hash.
func (t *KeyTable) find(key uint64) (int, int) {
	mask := len(t.idx) - 1
	for i := int(key * 0x9e3779b97f4a7c15 >> t.shift); ; i = (i + 1) & mask {
		e := &t.idx[i]
		if e.row == 0 {
			return -1, i
		}
		if e.key == key {
			return int(e.row - 1), i
		}
	}
}

// Row returns key's row, or -1 if key has none.
func (t *KeyTable) Row(key uint64) int {
	r, _ := t.find(key)
	return r
}

// RowFor returns key's row, appending one with a zeroed cell on first touch,
// or -1 if the key is new and the table already holds capacity rows.
func (t *KeyTable) RowFor(key uint64) int {
	r, i := t.find(key)
	if r >= 0 || len(t.keys) >= t.limit {
		return r
	}
	t.keys = append(t.keys, key)
	t.cells = append(t.cells, make([]byte, t.width)...)
	if len(t.keys)*2 > len(t.idx) {
		t.rehash() // files the new key with the rest
	} else {
		t.idx[i] = keyEnt{key: key, row: uint32(len(t.keys))}
	}
	return len(t.keys) - 1
}

// rehash doubles the index (or makes the first one) and re-inserts every
// key; rows do not move.
func (t *KeyTable) rehash() {
	n := max(2*len(t.idx), keyTableMinBuckets)
	t.idx = make([]keyEnt, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for r, key := range t.keys {
		_, i := t.find(key)
		t.idx[i] = keyEnt{key: key, row: uint32(r + 1)}
	}
}

// Key returns row r's key.
func (t *KeyTable) Key(r int) uint64 { return t.keys[r] }

// Len returns the number of rows.
func (t *KeyTable) Len() int { return len(t.keys) }

// Cell returns row r's cell. It is a view of the table's storage: writes to
// it are the register write, and it stays the row's cell until the next
// RowFor adds a row (which may move the storage); a caller that keeps the
// bytes past that copies them.
func (t *KeyTable) Cell(r int) []byte {
	return t.cells[r*t.width : (r+1)*t.width : (r+1)*t.width]
}

// Sorted returns every row in ascending key order: the order a walk over a
// register array takes, so what a walk sends is a function of the seed. Rows
// are never removed, so a snapshot as long as the table is still in key
// order: it is re-sorted only when rows were added. The slice is valid until
// the next call.
func (t *KeyTable) Sorted() []int32 {
	if len(t.sorted) < len(t.keys) {
		for r := len(t.sorted); r < len(t.keys); r++ {
			t.sorted = append(t.sorted, int32(r))
		}
		slices.SortFunc(t.sorted, func(a, b int32) int { return cmp.Compare(t.keys[a], t.keys[b]) })
	}
	return t.sorted
}

// Bytes returns the SRAM footprint.
func (t *KeyTable) Bytes() int { return t.bytes }

// Free releases the table's SRAM.
func (t *KeyTable) Free() {
	if t.idx != nil {
		t.sw.release(t.bytes)
		t.idx, t.keys, t.cells, t.sorted = nil, nil, nil, nil
	}
}

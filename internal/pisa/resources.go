package pisa

import (
	"fmt"

	"swishmem/internal/obs"
)

// This file implements the P4 memory object of §2 the protocols are built
// on: the register array, modifiable from the data plane (kvstore.go holds
// the keyed store). Whether a hop's state update runs in the data plane or
// needs the control plane — the distinction SwiShmem's protocol choice per NF
// hinges on, Observation 1 — is chain.Config.Backing.

// RegisterArray is a fixed-size array of fixed-width values in data-plane
// SRAM. Width is in bytes; entries are indexed 0..Entries-1.
type RegisterArray struct {
	sw      *Switch
	name    string
	entries int
	width   int
	data    []byte
}

// NewRegisterArray allocates a register array, charging entries*width bytes
// against the switch memory budget.
func (s *Switch) NewRegisterArray(name string, entries, width int) (*RegisterArray, error) {
	if entries <= 0 || width <= 0 {
		return nil, fmt.Errorf("pisa: register array %q needs positive entries and width", name)
	}
	if err := s.charge(entries*width, "register array "+name); err != nil {
		return nil, err
	}
	return &RegisterArray{sw: s, name: name, entries: entries, width: width, data: make([]byte, entries*width)}, nil
}

// Entries returns the array length.
func (r *RegisterArray) Entries() int { return r.entries }

// Width returns the per-entry width in bytes.
func (r *RegisterArray) Width() int { return r.width }

// Bytes returns the total SRAM footprint.
func (r *RegisterArray) Bytes() int { return r.entries * r.width }

// Get returns a copy of entry i.
func (r *RegisterArray) Get(i int) []byte {
	r.check(i)
	out := make([]byte, r.width)
	copy(out, r.data[i*r.width:])
	return out
}

// View returns entry i without copying. Callers must not retain it across
// packet boundaries (in hardware it would be a transient PHV value).
func (r *RegisterArray) View(i int) []byte {
	r.check(i)
	return r.data[i*r.width : (i+1)*r.width]
}

// Set overwrites entry i with v (padded/truncated to the width).
//
// Register writes are traced (reads are not: the read paths are the
// hottest code in the model and the write stream is what reconstructs
// state evolution in a timeline).
func (r *RegisterArray) Set(i int, v []byte) {
	r.check(i)
	cell := r.data[i*r.width : (i+1)*r.width]
	n := copy(cell, v)
	for ; n < r.width; n++ {
		cell[n] = 0
	}
	r.traceWrite("reg.write", i)
}

// traceWrite emits one register-write instant when tracing is on.
func (r *RegisterArray) traceWrite(op string, i int) {
	tr := r.sw.tracer()
	if !tr.Enabled() {
		return
	}
	rec := tr.Emit(obs.PhaseInstant, int64(r.sw.eng.Now()), 0, r.sw.pid(), "switch", op)
	rec.K1, rec.V1 = "index", int64(i)
	rec.KS, rec.VS = "array", r.name
}

// Free releases the array's memory back to the switch budget.
func (r *RegisterArray) Free() {
	if r.data != nil {
		r.sw.release(r.entries * r.width)
		r.data = nil
	}
}

func (r *RegisterArray) check(i int) {
	if r.data == nil {
		panic(fmt.Sprintf("pisa: use of freed register array %q", r.name))
	}
	if i < 0 || i >= r.entries {
		panic(fmt.Sprintf("pisa: register array %q index %d out of range [0,%d)", r.name, i, r.entries))
	}
}

// U64Get reads entry i as a big-endian uint64 (width must be >= 8).
func (r *RegisterArray) U64Get(i int) uint64 {
	v := r.View(i)
	return uint64(v[0])<<56 | uint64(v[1])<<48 | uint64(v[2])<<40 | uint64(v[3])<<32 |
		uint64(v[4])<<24 | uint64(v[5])<<16 | uint64(v[6])<<8 | uint64(v[7])
}

// U64Set writes entry i as a big-endian uint64 (width must be >= 8).
func (r *RegisterArray) U64Set(i int, v uint64) {
	cell := r.View(i)
	cell[0], cell[1], cell[2], cell[3] = byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32)
	cell[4], cell[5], cell[6], cell[7] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	r.traceWrite("reg.write", i)
}

// HashIndex maps an arbitrary key to a register index in [0, size), the way
// data-plane programs hash flow keys into register arrays (CRC-style fixed
// polynomials in real hardware). The mix is the splitmix64 finalizer with
// fixed constants: unlike a process-random maphash seed, indices — and
// therefore hash-collision-dependent experiment results like E14's
// false-forward rate — are identical across runs and processes, which the
// reproducible-from-a-seed contract requires.
func HashIndex(key uint64, size int) int {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(size))
}

package controller

import (
	"sort"

	"swishmem/internal/netem"
)

// Directory implements the §9 extension: a controller-side directory service
// (in the vein of cache-coherence directories) tracking which switches
// replicate which registers, so state with locality need not be replicated
// everywhere. Lookups answer "who holds register R".
//
// The directory is deliberately control-plane-only metadata: the data-plane
// protocols never consult it on the packet path.
type Directory struct {
	replicas map[uint16]map[netem.Addr]bool
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{replicas: make(map[uint16]map[netem.Addr]bool)}
}

// Register records that reg is replicated on addrs.
func (d *Directory) Register(reg uint16, addrs ...netem.Addr) {
	m, ok := d.replicas[reg]
	if !ok {
		m = make(map[netem.Addr]bool)
		d.replicas[reg] = m
	}
	for _, a := range addrs {
		m[a] = true
	}
}

// Lookup returns the sorted replica set for reg.
func (d *Directory) Lookup(reg uint16) []netem.Addr {
	m := d.replicas[reg]
	out := make([]netem.Addr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

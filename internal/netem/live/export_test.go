package live

import "swishmem/internal/netem"

// Bootstrapped reports whether a PeerList has been applied (thread-safe).
func (f *Fabric) Bootstrapped() bool { return f.peersEpoch.Load() > 0 }

// Addr returns the fabric's home address.
func (f *Fabric) Addr() netem.Addr { return f.addr }

// Addr returns the node's SwiShmem address.
func (n *Node) Addr() netem.Addr { return n.addr }

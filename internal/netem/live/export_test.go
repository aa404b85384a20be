package live

// Bootstrapped reports whether a PeerList has been applied (thread-safe).
func (f *Fabric) Bootstrapped() bool { return f.peersEpoch.Load() > 0 }

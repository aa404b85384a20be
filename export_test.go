package swishmem

// DisableCoalescing turns off the fabric's same-tick delivery batching (one
// scheduled event per same-timestamp burst on a link) for the A/B identity
// tests: coalescing is always on outside them, and the uncoalesced path is
// their reference. Call it before the first RunFor.
func (c *Cluster) DisableCoalescing() { c.net.SetCoalesce(false) }

// WithoutController returns the config of a cluster built without its central
// controller: registers declare, but no chain or group configuration is ever
// pushed, so the test installs it by hand.
func (c Config) WithoutController() Config {
	c.noController = true
	return c
}

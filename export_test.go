package swishmem

// WithoutController returns the config of a cluster built without its central
// controller: registers declare, but no chain or group configuration is ever
// pushed, so the test installs it by hand.
func (c Config) WithoutController() Config {
	c.noController = true
	return c
}

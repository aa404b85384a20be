package ddos

// Estimate returns the merged cluster-wide count-min estimate of dst's
// packet count in the current window.
func (d *Detector) Estimate(dst uint32) uint64 {
	var min uint64 = ^uint64(0)
	for r := 0; r < d.cfg.Depth; r++ {
		col := int(mix(uint64(dst)^uint64(r+1)*0x9e3779b97f4a7c15) % uint64(d.cfg.Width))
		if v := d.reg.Sum(d.cellKey(d.epoch, r, col)); v < min {
			min = v
		}
	}
	return min
}

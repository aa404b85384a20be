package experiments

// EWOStats sums the detectors' EWO protocol counters.
func (r *DDoSReplay) EWOStats() (merged, stale, syncPackets, syncBytes uint64) {
	for _, d := range r.Dets {
		s := &d.Register().Node().Stats
		merged += s.EntriesMerged.Value()
		stale += s.EntriesStale.Value()
		syncPackets += s.SyncPackets.Value()
		syncBytes += s.SyncBytes.Value()
	}
	return
}

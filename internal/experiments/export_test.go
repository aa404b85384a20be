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

// Run is RunMetered without batch accounting.
func Run(exps []Experiment, seed int64, workers int) []Report {
	return RunMetered(exps, seed, workers, nil)
}

// Run replays the next packets packets, then one more chunk with none so
// the last of them leave their pipelines.
func (r *DDoSReplay) Run(packets int) {
	for packets > 0 {
		packets -= r.Chunk(packets)
	}
	r.Chunk(0)
}

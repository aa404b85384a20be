package main

import "time"

// yardstick prices the host, not the system: round trips between two
// goroutines over unbuffered channels (scheduler, futex wake, clock reads),
// with nothing of the repository's code in them. On the shared 2-vCPU
// calibration host a dependent ALU chain and a DRAM-latency chase repeat
// within 1 % from run to run, yet all four workloads drift by 15-25 % over
// minutes with the neighbours' load -- and this round trip drifts with them:
// across runs of one binary, throughput, latency and CPU per op follow it
// with r = 0.9 on the live workloads and a slope near 1 (0.6-0.85 on
// live-sro-write, 0.9-1.4 on the others; README.md, "The host yardstick"). The end-to-end
// metrics are therefore reported at a fixed round-trip cost, yardNominal:
// times are scaled by yardNominal/measured, rates by the inverse, which cut
// the run-to-run spread from 13-22 % to 4-10 %. It is the calibration loop of
// ROADMAP 1(c), taken inside every run instead of once per snapshot.
type yardstick struct {
	ping, pong chan struct{}
	samples    []float64 // ns per round trip, yardRounds round trips each
}

const (
	yardNominal = 400.0 // ns per round trip the metrics are reported at (a quiet calibration host)
	yardRounds  = 4000  // round trips per sample (~1.6 ms)
	yardSamples = 8     // samples per pause of the workload
)

func newYardstick() *yardstick {
	y := &yardstick{ping: make(chan struct{}), pong: make(chan struct{})}
	go func() {
		for range y.ping {
			y.pong <- struct{}{}
		}
	}()
	return y
}

func (y *yardstick) close() { close(y.ping) }

// sample takes yardSamples samples. The workload must be paused: the figure
// is the cost of a round trip on an otherwise idle process.
func (y *yardstick) sample() {
	for s := 0; s < yardSamples; s++ {
		t0 := time.Now()
		for i := 0; i < yardRounds; i++ {
			y.ping <- struct{}{}
			<-y.pong
		}
		y.samples = append(y.samples, float64(time.Since(t0))/yardRounds)
	}
}

// scale is what a measured time is multiplied by (and a rate divided by) to
// read as on a host whose round trip costs yardNominal.
func (y *yardstick) scale() float64 { return yardNominal / median(y.samples) }

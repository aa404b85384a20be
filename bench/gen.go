package main

import (
	"fmt"
	"math/rand"
	"time"

	"swishmem/internal/livecluster"
	"swishmem/internal/packet"
	"swishmem/internal/workload"
)

// Fixed workload constants (documented in README.md). Changing any of them
// changes what the benchmark measures: re-run `check` and re-baseline.
const (
	members = 3 // live cluster size

	opRing = 1 << 18 // generated ops per live workload; the loop wraps

	sroWindow = 64 // SRO writes outstanding (the writer's packet buffer)
	ewoBurst  = 32 // counter adds per posted closure (one packet burst)
	ewoWindow = 8  // closures outstanding
	mixWindow = 64 // mixed ops outstanding

	// Warm-up op counts: fixed work, so setup_s is CPU time spent filling
	// pools, maps and socket buffers, not a timer reading.
	sroWarmOps = 150_000
	ewoWarmOps = 1_200_000
	mixWarmOps = 300_000

	mixFlowsPerSec = 20_000
	mixTraceLen    = 1300 * time.Millisecond // ~260k packets at 10 pkts/flow

	simSwitches   = 8
	simTraceLen   = time.Second // looped with a 1 s offset per pass
	simChunk      = 10 * time.Millisecond
	simWarmChunks = 25
	simBgFlows    = 10_000 // swishd's ddos mix: flows/2 background ...
	simAttackPPS  = 120_000
	simAttackSrcs = 4000
	simVictim     = 3
)

type opKind uint8

const (
	opWrite opKind = iota // SRO write
	opRead                // SRO read of the flow's key + counter add
	opLWW                 // EWO last-writer-wins write
	opAdds                // a burst of ewoBurst counter adds
	opNop                 // completes at once: prices the generator itself
)

// op is one generated operation. The system only ever sees these fields.
type op struct {
	kind   opKind
	member uint8  // target member index
	ckey   uint8  // counter key
	delta  uint8  // counter delta
	key    uint16 // strong key (opWrite/opRead) or LWW key (opLWW)
}

// genSRO: keys uniform over the strong register, writer round-robin.
func genSRO(seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, opRing)
	for i := range ops {
		ops[i] = op{kind: opWrite, member: uint8(i % members),
			key: uint16(rng.Intn(livecluster.StrongCapacity))}
	}
	return ops
}

// genEWO: counter keys uniform, small deltas; each run of ewoBurst ops is
// one closure, and closures go round-robin over members.
func genEWO(seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, opRing)
	for i := range ops {
		ops[i] = op{kind: opAdds, member: uint8(i / ewoBurst % members),
			ckey: uint8(rng.Intn(livecluster.CounterKeys)), delta: uint8(1 + rng.Intn(4))}
	}
	return ops
}

// flowHash is FNV-1a over the 5-tuple: the mapping livecluster.Soak uses to
// land a trace packet on the same member and key in every run.
func flowHash(k packet.FlowKey) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	src, dst := k.Src.As4(), k.Dst.As4()
	for _, b := range src {
		mix(b)
	}
	for _, b := range dst {
		mix(b)
	}
	mix(byte(k.SrcPort >> 8))
	mix(byte(k.SrcPort))
	mix(byte(k.DstPort >> 8))
	mix(byte(k.DstPort))
	mix(byte(k.Proto))
	return h
}

// genMix maps a connection-churn trace onto register ops by flow hash: flow
// start -> SRO write, flow end -> LWW write, data packet -> SRO read of the
// flow's key plus a counter add.
func genMix(seed int64) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	tr, err := workload.GenTrace(rng, workload.TraceConfig{
		Duration: mixTraceLen, FlowsPerSec: mixFlowsPerSec, Servers: 16})
	if err != nil {
		return nil, err
	}
	ops := make([]op, 0, len(tr))
	for i := range tr {
		fk, ok := tr[i].Pkt.Flow()
		if !ok {
			continue
		}
		h := flowHash(fk)
		o := op{member: uint8(h % members), key: uint16(h % livecluster.StrongCapacity),
			ckey: uint8(h % livecluster.CounterKeys), delta: 1}
		switch {
		case tr[i].FlowStart:
			o.kind = opWrite
		case tr[i].FlowEnd:
			o.kind, o.key = opLWW, uint16(h%livecluster.LWWKeys)
		default:
			o.kind = opRead
		}
		ops = append(ops, o)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("bench: empty mix trace")
	}
	return ops, nil
}

// genSim is swishd's ddos mix: background connection churn plus a flood
// toward one victim, one virtual second long.
func genSim(seed int64) (workload.Trace, error) {
	rng := rand.New(rand.NewSource(seed))
	bg, err := workload.GenTrace(rng, workload.TraceConfig{
		Duration: simTraceLen, FlowsPerSec: simBgFlows, Servers: 64})
	if err != nil {
		return nil, err
	}
	atk, err := workload.GenAttack(rng, workload.AttackConfig{
		Duration: simTraceLen, PacketsPerSec: simAttackPPS, Sources: simAttackSrcs, Victim: simVictim})
	if err != nil {
		return nil, err
	}
	return workload.Merge(bg, atk), nil
}

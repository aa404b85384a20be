package workload

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"
	"time"

	"swishmem/internal/packet"
	"swishmem/internal/sim"
)

// digest hashes everything a replay can observe of a trace: each packet's
// arrival offset, its flow marks and its wire bytes, in trace order.
func digest(t *testing.T, tr Trace) string {
	t.Helper()
	h := sha256.New()
	var b [10]byte
	for i := range tr {
		binary.BigEndian.PutUint64(b[:8], uint64(tr[i].At))
		b[8], b[9] = 0, 0
		if tr[i].FlowStart {
			b[8] = 1
		}
		if tr[i].FlowEnd {
			b[9] = 1
		}
		h.Write(b[:])
		wire, err := tr[i].Pkt.Serialize()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		h.Write(wire)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorDigests pins the generators' output for fixed seeds, so a
// change to how a trace is built cannot change what it contains or its order.
func TestGeneratorDigests(t *testing.T) {
	gen := func(seed int64, f func(*rand.Rand) (Trace, error)) Trace {
		tr, err := f(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	churn := func(rng *rand.Rand) (Trace, error) {
		return GenTrace(rng, TraceConfig{Duration: 20 * time.Millisecond, FlowsPerSec: 20_000,
			MeanPacketsPerFlow: 8, Clients: 300, Servers: 8})
	}
	flood := func(rng *rand.Rand) (Trace, error) {
		return GenAttack(rng, AttackConfig{Duration: 5 * time.Millisecond, PacketsPerSec: 1e6,
			Sources: 2000, Victim: 1})
	}
	users := func(rng *rand.Rand) (Trace, error) {
		return GenUserStreams(rng, UserStreamConfig{Duration: 50 * time.Millisecond, Users: 10,
			PacketsPerSecPerUser: 2000, HogFactor: 5})
	}
	// The ddos mix: background churn and a flood drawn from one generator.
	mix := func(rng *rand.Rand) (Trace, error) {
		bg, err := GenTrace(rng, TraceConfig{Duration: 10 * time.Millisecond, FlowsPerSec: 10_000, Servers: 64})
		if err != nil {
			return nil, err
		}
		atk, err := GenAttack(rng, AttackConfig{Duration: 10 * time.Millisecond, PacketsPerSec: 120_000,
			Sources: 4000, Victim: 3})
		if err != nil {
			return nil, err
		}
		return Merge(bg, atk), nil
	}
	for _, tc := range []struct {
		name string
		tr   Trace
		n    int
		want string
	}{
		{"GenTrace", gen(11, churn),
			3197, "a03645e0e0386f7013dd96f06c8b5232e0ca304d53493b5393b0029f9d79ae88"},
		{"GenAttack", gen(12, flood),
			5029, "70071485f3d31fc05e303edd7a1a647f02e3e84f8e16df9ae19f620537de7561"},
		{"GenUserStreams", gen(13, users),
			1443, "00e04ea729ec6e2eb669095aaa4644aaeac243ee852921fa463afa5d73389863"},
		{"Merge", gen(14, mix),
			2283, "e6a3c5bb93cd65e4b1692b6b954d04230e367da843b575399b31b13833541790"},
		{"Merge3", Merge(gen(15, flood), gen(16, users), gen(17, churn)),
			9576, "652b6259b067c146115faf8c053ad28e0aeaa44e8638e2fe1f01c7b4057b56c9"},
	} {
		if got := digest(t, tc.tr); len(tc.tr) != tc.n || got != tc.want {
			t.Errorf("%s: %d packets, digest %s; want %d, %s", tc.name, len(tc.tr), got, tc.n, tc.want)
		}
	}
}

// FuzzMerge holds Merge to its definition: the stable sort of the
// concatenation of its sorted arguments. Each input byte b adds a packet
// b&3 after the previous one of its argument; a byte with the high bit set
// starts a new argument first. Ties within and across arguments are common.
func FuzzMerge(f *testing.F) {
	f.Add([]byte{0x80, 0, 1, 0, 0x80, 0, 0, 2})
	f.Add([]byte{0x81, 0x81, 0x81})
	f.Add([]byte{0x80, 1, 1, 1, 0x80, 0x80, 3, 0, 0x80, 2, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var traces []Trace
		var at sim.Duration
		for _, b := range data {
			if b&0x80 != 0 || traces == nil {
				traces = append(traces, nil)
				at = 0
			}
			at += sim.Duration(b & 3)
			tr := &traces[len(traces)-1]
			*tr = append(*tr, TimedPacket{At: at, Pkt: new(packet.Packet)})
		}
		var want Trace
		for _, tr := range traces {
			want = append(want, tr...)
		}
		slices.SortStableFunc(want, func(a, b TimedPacket) int { return cmp.Compare(a.At, b.At) })
		got := Merge(traces...)
		if len(got) != len(want) {
			t.Fatalf("merged %d packets, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].At != want[i].At || got[i].Pkt != want[i].Pkt {
				t.Fatalf("position %d holds a packet at %d; the stable sort puts another there, at %d", i, got[i].At, want[i].At)
			}
		}
	})
}

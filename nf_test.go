package swishmem

import (
	"math/rand"
	"testing"
	"time"

	"swishmem/internal/packet"
	"swishmem/internal/workload"
)

func TestDeployNAT(t *testing.T) {
	c, _ := New(Config{Switches: 2, Seed: 21})
	nats, err := c.DeployNAT("nat", NATOptions{Capacity: 1024, ExternalIP: Addr4(203, 0, 113, 9)})
	if err != nil {
		t.Fatal(err)
	}
	var out []*Packet
	nats[0].Egress = func(p *Packet) { out = append(out, p) }
	nats[0].Install() // re-install to pick up the egress hook
	c.RunFor(2 * time.Millisecond)

	syn := packet.NewBuilder().Src(Addr4(10, 1, 1, 1)).Dst(Addr4(8, 8, 8, 8)).
		TCP(5000, 80, packet.FlagSYN).Build()
	nats[0].Switch().InjectPacket(syn)
	c.RunFor(100 * time.Millisecond)
	if len(out) != 1 || out[0].IP.Src != Addr4(203, 0, 113, 9) {
		t.Fatalf("NAT output: %v", out)
	}
}

func TestDeployFirewallAndCrossSwitch(t *testing.T) {
	c, _ := New(Config{Switches: 2, Seed: 22})
	fws, err := c.DeployFirewall("fw", FirewallOptions{Capacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var out1 []*Packet
	fws[1].Egress = func(p *Packet) { out1 = append(out1, p) }
	fws[1].Install()
	c.RunFor(2 * time.Millisecond)

	syn := packet.NewBuilder().Src(Addr4(10, 1, 1, 1)).Dst(Addr4(8, 8, 8, 8)).
		TCP(5000, 443, packet.FlagSYN).Build()
	fws[0].Switch().InjectPacket(syn)
	c.RunFor(100 * time.Millisecond)
	reply := packet.NewBuilder().Src(Addr4(8, 8, 8, 8)).Dst(Addr4(10, 1, 1, 1)).
		TCP(443, 5000, packet.FlagACK).Build()
	fws[1].Switch().InjectPacket(reply)
	c.RunFor(10 * time.Millisecond)
	if len(out1) != 1 {
		t.Fatal("cross-switch reply blocked")
	}
}

func TestDeployIPS(t *testing.T) {
	c, _ := New(Config{Switches: 2, Seed: 23})
	ipss, err := c.DeployIPS("ips", IPSOptions{Capacity: 512})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	ipss[0].AddSignature([]byte("MALWARE!"), nil)
	c.RunFor(100 * time.Millisecond)
	bad := packet.NewBuilder().Src(Addr4(1, 1, 1, 1)).Dst(Addr4(10, 1, 1, 1)).
		TCP(1, 2, packet.FlagACK).Payload([]byte("xxMALWARE!xx")).Build()
	ipss[1].Switch().InjectPacket(bad)
	c.RunFor(10 * time.Millisecond)
	if ipss[1].Stats.Matched.Value() != 1 {
		t.Fatal("replicated signature not enforced on switch 2")
	}
}

func TestDeployLoadBalancerBothModes(t *testing.T) {
	c, _ := New(Config{Switches: 2, Seed: 24})
	lbs, err := c.DeployLoadBalancer("lb", LBOptions{
		Capacity: 1024,
		DIPs:     []Addr{Addr4(192, 168, 1, 1), Addr4(192, 168, 1, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []*Packet
	lbs[0].Egress = func(p *Packet) { out = append(out, p) }
	lbs[0].Install()
	c.RunFor(2 * time.Millisecond)
	syn := packet.NewBuilder().Src(Addr4(77, 1, 1, 1)).Dst(Addr4(203, 0, 113, 80)).
		TCP(6000, 80, packet.FlagSYN).Build()
	lbs[0].Switch().InjectPacket(syn)
	c.RunFor(100 * time.Millisecond)
	if len(out) != 1 {
		t.Fatal("no LB output")
	}

	// Sharded baseline deploys without a register.
	c2, _ := New(Config{Switches: 2, Seed: 25})
	if _, err := c2.DeployLoadBalancer("lb", LBOptions{
		Capacity: 64, Sharded: true,
		DIPs: []Addr{Addr4(192, 168, 1, 1)},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDeployDDoS(t *testing.T) {
	c, _ := New(Config{Switches: 2, Seed: 26})
	dets, err := c.DeployDDoS("ddos", DDoSOptions{Threshold: 50, Window: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	alarm := false
	dets[0].OnAlarm = func(victim FlowKey, est uint64) { alarm = true }
	dets[1].OnAlarm = func(victim FlowKey, est uint64) { alarm = true }
	for i := 0; i < 70; i++ {
		p := packet.NewBuilder().Src(Addr4(45, 0, 0, byte(i))).Dst(Addr4(192, 168, 0, 1)).UDP(1, 80).Build()
		dets[i%2].Switch().InjectPacket(p)
		c.RunFor(50 * time.Microsecond)
	}
	c.RunFor(5 * time.Millisecond)
	if !alarm {
		t.Fatal("distributed attack not detected")
	}
}

func TestDeployRateLimiter(t *testing.T) {
	c, _ := New(Config{Switches: 2, Seed: 27})
	lims, err := c.DeployRateLimiter("rl", RateLimitOptions{
		Capacity: 64, BytesPerWindow: 500, Window: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	for i := 0; i < 10; i++ {
		p := packet.NewBuilder().Src(Addr4(10, 0, 0, 1)).Dst(Addr4(192, 168, 0, 1)).
			UDP(1, 443).Payload(make([]byte, 100)).Build()
		lims[i%2].Switch().InjectPacket(p)
		c.RunFor(100 * time.Microsecond)
	}
	c.RunFor(3 * time.Millisecond)
	user := packet.U32Addr(Addr4(10, 0, 0, 1))
	if !lims[0].Blocked(user) {
		t.Fatalf("aggregate hog not blocked (usage=%d)", lims[0].Usage(user))
	}
}

func TestDeployDuplicateName(t *testing.T) {
	c, _ := New(Config{Switches: 1, Seed: 28})
	if _, err := c.DeployIPS("x", IPSOptions{Capacity: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeployFirewall("x", FirewallOptions{Capacity: 8}); err == nil {
		t.Fatal("duplicate deployment name accepted")
	}
}

// TestNFsLeavePayloadsUnwritten: the generators' packets share one array of
// zero payload bytes (packet.ForFlow), which is sound only while no NF
// program writes a payload. Each of the six NFs processes a generated trace
// of 64 B and 512 B payloads on both switches of its own cluster, and then
// every payload, and the whole shared array, must still read zero.
func TestNFsLeavePayloadsUnwritten(t *testing.T) {
	dips := []Addr{Addr4(192, 168, 1, 1), Addr4(192, 168, 1, 2)}
	deploy := map[string]func(*Cluster) ([]*Switch, error){
		"nat": func(c *Cluster) ([]*Switch, error) {
			n, err := c.DeployNAT("nf", NATOptions{Capacity: 4096, ExternalIP: Addr4(203, 0, 113, 9)})
			return switchesOf(n, err)
		},
		"firewall": func(c *Cluster) ([]*Switch, error) {
			return switchesOf(c.DeployFirewall("nf", FirewallOptions{Capacity: 4096}))
		},
		"ips": func(c *Cluster) ([]*Switch, error) {
			return switchesOf(c.DeployIPS("nf", IPSOptions{Capacity: 512}))
		},
		"lb": func(c *Cluster) ([]*Switch, error) {
			return switchesOf(c.DeployLoadBalancer("nf", LBOptions{Capacity: 4096, DIPs: dips}))
		},
		"ddos": func(c *Cluster) ([]*Switch, error) {
			return switchesOf(c.DeployDDoS("nf", DDoSOptions{Threshold: 50, Window: time.Millisecond}))
		},
		"ratelimit": func(c *Cluster) ([]*Switch, error) {
			return switchesOf(c.DeployRateLimiter("nf", RateLimitOptions{
				Capacity: 64, BytesPerWindow: 4096, Window: time.Millisecond}))
		},
	}
	for name, dep := range deploy {
		rng := rand.New(rand.NewSource(3))
		churn, err := workload.GenTrace(rng, workload.TraceConfig{Duration: 5 * time.Millisecond,
			FlowsPerSec: 20_000, Servers: 8})
		if err != nil {
			t.Fatal(err)
		}
		users, err := workload.GenUserStreams(rng, workload.UserStreamConfig{Duration: 5 * time.Millisecond,
			Users: 4, PacketsPerSecPerUser: 4000})
		if err != nil {
			t.Fatal(err)
		}
		tr := workload.Merge(churn, users)
		c, _ := New(Config{Switches: 2, Seed: 31})
		sws, err := dep(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c.RunFor(2 * time.Millisecond)
		next := 0
		workload.Replay(c.Engine(), tr, func(p *Packet) {
			sws[next].InjectPacket(p)
			next ^= 1
		})
		c.RunFor(20 * time.Millisecond)
		if n := sws[0].Stats.Processed.Value() + sws[1].Stats.Processed.Value(); n < uint64(len(tr)) {
			t.Fatalf("%s: %d of %d packets processed", name, n, len(tr))
		}
		for i := range tr {
			for _, b := range tr[i].Pkt.Payload {
				if b != 0 {
					t.Fatalf("%s wrote the payload of packet %d", name, i)
				}
			}
		}
	}
	all := packet.ForFlow(FlowKey{Proto: packet.ProtoUDP}, 0, 512).Payload
	for i, b := range all {
		if b != 0 {
			t.Fatalf("shared payload byte %d reads %#x", i, b)
		}
	}
}

// switchesOf returns the switches the NF instances run on.
func switchesOf[T interface{ Switch() *Switch }](nfs []T, err error) ([]*Switch, error) {
	sws := make([]*Switch, len(nfs))
	for i, n := range nfs {
		sws[i] = n.Switch()
	}
	return sws, err
}

package main

import (
	"net/netip"

	"policyinject/internal/attack"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/pkt"
	"policyinject/internal/traffic"
)

// burstLen is the burst the load loop hands the switch: OVS's
// NETDEV_MAX_BURST.
const burstLen = 32

// Ingress ports: the victim tenant's pod and the attacker's.
const (
	victimPort   = 1
	attackerPort = 66
)

// splitmix is the benchmark's seeded PRNG (SplitMix64). Every generator
// draws from one, so a seed fixes the whole input.
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a draw in [0, n).
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// source fills the next burst of frames.
type source interface {
	fill(fb *dataplane.FrameBatch)
}

// trainMix is the warm-mix generator: flows drawn from a Zipf-skewed
// traffic.Mix, each arriving as a train of geometric length (mean
// trainMean, capped at trainCap) of back-to-back copies.
type trainMix struct {
	mix  *traffic.Mix
	rng  splitmix
	cur  []byte
	port uint32
	left int
}

const (
	trainMean = 4
	trainCap  = 16
)

func newTrainMix(seed uint64, flows int) *trainMix {
	return &trainMix{
		mix: traffic.NewMix(traffic.MixConfig{
			Seed:     seed,
			NFlows:   flows,
			Subnet:   netip.MustParsePrefix("10.10.0.0/24"),
			InPort:   victimPort,
			Skew:     0.8,
			FrameLen: 64,
		}),
		rng: splitmix{state: seed ^ 0x7261696e},
	}
}

// trainLen draws a geometric train length with mean trainMean, capped at
// trainCap.
func (t *trainMix) trainLen() int {
	n := 1
	for n < trainCap && t.rng.intn(trainMean) != 0 {
		n++
	}
	return n
}

func (t *trainMix) fill(fb *dataplane.FrameBatch) {
	for fb.Len() < burstLen {
		if t.left == 0 {
			t.cur, t.port = t.mix.NextFrame()
			t.left = t.trainLen()
		}
		fb.Append(t.cur, t.port)
		t.left--
	}
}

// cyclic replays a fixed frame list round-robin from one port: the
// victim's iperf flows and the attacker's covert stream.
type cyclic struct {
	frames [][]byte
	port   uint32
	next   int
}

func (c *cyclic) fill(fb *dataplane.FrameBatch) {
	for fb.Len() < burstLen {
		fb.Append(c.frames[c.next], c.port)
		c.next = (c.next + 1) % len(c.frames)
	}
}

// victimFrames builds the paper's victim: flows parallel iperf TCP
// connections from one seeded client in 10.10.0.0/24, on distinct seeded
// ephemeral ports, to the server's port 5201, in MTU-sized frames.
func victimFrames(seed uint64, flows int) [][]byte {
	rng := splitmix{state: seed ^ 0x76696374}
	client := netip.AddrFrom4([4]byte{10, 10, 0, byte(1 + rng.intn(254))})
	server := netip.MustParseAddr("172.16.0.2")
	used := make(map[uint16]bool, flows)
	frames := make([][]byte, 0, flows)
	for len(frames) < flows {
		sport := uint16(32768 + rng.intn(28232))
		if used[sport] {
			continue
		}
		used[sport] = true
		frames = append(frames, pkt.MustBuild(pkt.Spec{
			Src: client, Dst: server, Proto: pkt.ProtoTCP,
			SrcPort: sport, DstPort: 5201, FrameLen: 1514,
		}))
	}
	return frames
}

// covertFrames is the attacker's covert stream for atk in a seeded
// order (Fisher-Yates), sent from the attacker's port.
func covertFrames(seed uint64, atk *attack.Attack) ([][]byte, error) {
	frames, err := atk.Frames()
	if err != nil {
		return nil, err
	}
	rng := splitmix{state: seed ^ 0x636f7665}
	for i := len(frames) - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		frames[i], frames[j] = frames[j], frames[i]
	}
	return frames, nil
}

// installPolicy installs the victim tenant's whitelist (10.10.0.0/24 on
// the victim port, default deny) and atk's ACL scoped to the attacker
// port, as the CMS compiles them.
func installPolicy(sw *dataplane.Switch, atk *attack.Attack) error {
	var vm flow.Match
	vm.Key.Set(flow.FieldInPort, victimPort)
	vm.Mask.SetExact(flow.FieldInPort)
	vm.Key.Set(flow.FieldEthType, flow.EthTypeIPv4)
	vm.Mask.SetExact(flow.FieldEthType)
	vm.Key.Set(flow.FieldIPSrc, 0x0a0a0000)
	vm.Mask.SetPrefix(flow.FieldIPSrc, 24)
	sw.InstallRule(flowtable.Rule{Match: vm, Priority: 100, Action: flowtable.Action{Verdict: flowtable.Allow}})
	var dm flow.Match
	dm.Key.Set(flow.FieldInPort, victimPort)
	dm.Mask.SetExact(flow.FieldInPort)
	sw.InstallRule(flowtable.Rule{Match: dm, Priority: 0})
	acl, err := atk.BuildACL()
	if err != nil {
		return err
	}
	rules, err := acl.Compile()
	if err != nil {
		return err
	}
	for _, r := range rules {
		r.Match.Key.Set(flow.FieldInPort, attackerPort)
		r.Match.Mask.SetExact(flow.FieldInPort)
		sw.InstallRule(r)
	}
	return nil
}

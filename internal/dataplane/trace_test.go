package dataplane

import (
	"net/netip"
	"reflect"
	"testing"

	"policyinject/internal/conntrack"
	"policyinject/internal/pkt"
)

// traceFrames builds 16 distinct TCP SYN frames from src/24 hosts to
// dst:dport, one source host and port per frame.
func traceFrames(src, dst string, dport uint16) [][]byte {
	base := netip.MustParseAddr(src).As4()
	frames := make([][]byte, 16)
	for i := range frames {
		ip := base
		ip[3] += byte(i)
		frames[i] = pkt.MustBuild(pkt.Spec{
			Src: netip.AddrFrom4(ip), Dst: netip.MustParseAddr(dst),
			Proto: pkt.ProtoTCP, SrcPort: uint16(40000 + i), DstPort: dport, FrameLen: 128,
		})
	}
	return frames
}

// TestTraceFrameMatchesProcess: tracing a frame changes the switch exactly
// as processing it does. Two identical switches see the same frames, one
// through TraceFrame and the other through Process; then both process the
// frames again. Switch counters, every tier's stats and the conntrack
// table must agree afterwards — a trace that installs a megaflow where
// Process would not (another shard), or stops at the first pass of a
// recirculated packet, shows up here.
func TestTraceFrameMatchesProcess(t *testing.T) {
	allowed := traceFrames("10.0.7.1", "10.0.0.9", 443)
	denied := traceFrames("192.168.3.1", "10.0.0.9", 22)
	stateless := append(append([][]byte{}, allowed[:12]...), denied[:4]...)
	hierarchies := []struct {
		name   string
		build  func() *Switch
		frames [][]byte
	}{
		{"default", func() *Switch { return aclSwitch() }, stateless},
		{"staged", func() *Switch { return aclSwitch(WithStagedPruning()) }, stateless},
		{"noemc-shards4", func() *Switch { return aclSwitch(WithoutEMC(), WithShards(4)) }, stateless},
		{"stateful", func() *Switch { return statefulSwitch(t, conntrack.Config{}) },
			append(traceFrames("10.1.2.3", "172.16.0.1", 443)[:12], traceFrames("192.168.3.1", "172.16.0.1", 22)[:4]...)},
	}
	for _, h := range hierarchies {
		t.Run(h.name, func(t *testing.T) {
			traced, processed := h.build(), h.build()
			for i, f := range h.frames {
				traced.TraceFrame(uint64(1+i), f, 1)
				if _, err := processed.Process(uint64(1+i), 1, f); err != nil {
					t.Fatal(err)
				}
			}
			for i, f := range h.frames {
				now := uint64(1 + len(h.frames) + i)
				traced.Process(now, 1, f)
				processed.Process(now, 1, f)
			}
			if a, b := traced.Counters(), processed.Counters(); !reflect.DeepEqual(a, b) {
				t.Errorf("counters diverge:\n traced    %+v\n processed %+v", a, b)
			}
			for i, tier := range traced.Tiers() {
				if a, b := tier.Stats(), processed.Tiers()[i].Stats(); a != b {
					t.Errorf("tier %d stats diverge:\n traced    %+v\n processed %+v", i, a, b)
				}
			}
			if ct := traced.Conntrack(); ct != nil && ct.Len() != processed.Conntrack().Len() {
				t.Errorf("conntrack: traced %d connections, processed %d", ct.Len(), processed.Conntrack().Len())
			}
		})
	}
}

// TestTraceFrameRecirculatedGolden pins the explanation of a stateful
// SYN: the first pass dispatches to the connection tracker, the second
// classifies the +trk+new key, and the verdict commits the connection.
func TestTraceFrameRecirculatedGolden(t *testing.T) {
	sw := statefulSwitch(t, conntrack.Config{})
	got := sw.TraceFrame(2, traceFrames("10.1.2.3", "172.16.0.1", 443)[0], 1).String()
	want := `trace: 128-byte frame on port 1 at t=2
  flow: eth_dst=02:00:00:00:00:02,eth_src=02:00:00:00:00:01,eth_type=2048,in_port=1,ip_dst=172.16.0.1,ip_proto=6,ip_src=10.1.2.3,tcp_flags=2,tp_dst=443,tp_src=40000
  tier 0 megaflow: MISS (cost 0)
    subtables: 0 resident, 0 scanned, 0 probed, 0 pruned, 0 stage-hash bails
  upcall: admitted to slow path
    rule: priority=300,ct_state=0x0/0x1 actions=ct(recirc)  # untracked: send to conntrack
    megaflow: ct_state=0x0/0x1
    install: ok (promoted to upper tiers)
  recirculate: conntrack state new
  flow: ct_state=3,eth_dst=02:00:00:00:00:02,eth_src=02:00:00:00:00:01,eth_type=2048,in_port=1,ip_dst=172.16.0.1,ip_proto=6,ip_src=10.1.2.3,tcp_flags=2,tp_dst=443,tp_src=40000
  tier 0 megaflow: MISS (cost 1)
    subtables: 1 resident, 1 scanned, 0 probed, 0 pruned, 0 stage-hash bails
  upcall: admitted to slow path
    rule: priority=100,eth_type=2048,ip_src=10.0.0.0/8,ct_state=0x3/0x3 actions=allow:ct(commit)  # web-sg entry 0
    megaflow: eth_type=2048,ip_proto=6,ip_src=10.0.0.0/8,tp_dst=443,ct_state=0x3/0x7
    install: ok (promoted to upper tiers)
  conntrack: connection committed
verdict: allow:ct(commit) via slowpath, masks scanned 1
`
	if got != want {
		t.Errorf("trace text drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
	if sw.Conntrack().Len() != 1 {
		t.Errorf("traced SYN committed %d connections, want 1", sw.Conntrack().Len())
	}
}

package sim

import (
	"net/netip"
	"testing"
	"time"

	"policyinject/internal/attack"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/traffic"
)

func TestThroughputModel(t *testing.T) {
	// 1 µs per packet on one core = 1 Mpps capacity.
	if got := Throughput(time.Microsecond, 2e6); got != 1e6 {
		t.Errorf("capacity-bound = %g", got)
	}
	if got := Throughput(time.Microsecond, 5e5); got != 5e5 {
		t.Errorf("offer-bound = %g", got)
	}
	if got := Throughput(0, 7); got != 7 {
		t.Errorf("zero cost = %g", got)
	}
}

func TestGbpsConversions(t *testing.T) {
	// 1514-byte frames at line-rate GbE: 1e9 / ((1514+20)*8) = 81,486 pps.
	pps := PPSFor(1.0, 1514)
	if pps < 81000 || pps > 82000 {
		t.Errorf("PPSFor = %g", pps)
	}
	if got := Gbps(pps, 1514); got < 0.999 || got > 1.001 {
		t.Errorf("round trip = %g", got)
	}
}

func TestMeasureCostSane(t *testing.T) {
	sw := dataplane.New("cached")
	sw.InstallRule(flowtable.Rule{Priority: 0, Action: flowtable.Action{Verdict: flowtable.Allow}})
	gen := traffic.NewVictim(traffic.VictimConfig{
		Src: netip.MustParseAddr("10.0.0.1"),
		Dst: netip.MustParseAddr("10.0.0.2"),
	})
	cost := MeasureCost(sw, gen, 1, 64)
	if cost <= 0 || cost > time.Millisecond {
		t.Errorf("cost = %v", cost)
	}
}

// TestSweepMonotoneDegradation is experiment E5's core assertion: lookup
// cost grows with mask count, and the 512-mask point sits at or below
// ~10-20%% of the single-mask peak — the paper claims "slowing it down to
// 10%% of the peak performance".
func TestSweepMonotoneDegradation(t *testing.T) {
	res, err := RunSweep([]int{1, 8, 64, 512}, 256)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Points
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].CostPerPkt <= pts[i-1].CostPerPkt {
			t.Errorf("cost not increasing: %v", pts)
		}
	}
	if pts[0].RelativePeak != 1 {
		t.Errorf("first point relative peak = %v", pts[0].RelativePeak)
	}
	// Generous bound for noisy CI machines: at 512 masks the victim must
	// have lost at least three quarters of peak (paper: ~90%).
	if pts[3].RelativePeak > 0.25 {
		t.Errorf("512 masks retains %.1f%% of peak; expected <= 25%%\n%s",
			pts[3].RelativePeak*100, res.Table())
	}
}

func TestSweepRejectsBadCounts(t *testing.T) {
	if _, err := RunSweep([]int{0}, 16); err == nil {
		t.Error("mask count 0 accepted")
	}
	if _, err := RunSweep([]int{9000}, 16); err == nil {
		t.Error("mask count beyond 8192 accepted")
	}
}

// TestFig3CovertKeysScoped checks that every covert key of the attack
// sequence is IPv4, the shape the Fig. 3 packs replay as wire frames.
func TestFig3CovertKeysScoped(t *testing.T) {
	atk := attack.TwoField()
	keys, err := atk.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if k.Get(flow.FieldEthType) != flow.EthTypeIPv4 {
			t.Fatal("covert key not IPv4")
		}
	}
}

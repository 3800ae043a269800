package sim

import (
	"fmt"
	"net/netip"

	"policyinject/internal/acl"
	"policyinject/internal/attack"
	"policyinject/internal/cache"
	"policyinject/internal/classifier"
	"policyinject/internal/cms"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/metrics"
	"policyinject/internal/revalidator"
	"policyinject/internal/traffic"
)

// Fig3Config parameterises the reproduction of paper Fig. 3: "OVS
// degradation in Kubernetes: attacker feeds her ACL with low-bandwidth
// packets at 60th sec".
type Fig3Config struct {
	Duration    int // seconds, default 150 (the paper's x-axis)
	AttackStart int // second the covert stream starts, default 60
	// Attack is the configured attack; default ThreeField (8192 masks,
	// the paper's full-blown DoS).
	Attack *attack.Attack
	// VictimGbps is the victim's offered load, default 0.95 (a saturated
	// GbE iperf stream, the paper's left axis scale).
	VictimGbps float64
	// VictimFlows is the number of parallel iperf connections, default 8.
	VictimFlows int
	// FrameLen is the victim frame size, default 1514.
	FrameLen int
	// CovertPPS overrides the covert stream rate; default is the rate
	// needed to cycle the full sequence every 2 seconds, which stays
	// within the paper's 1–2 Mbps at 64-byte frames.
	CovertPPS float64
	// EMCEntries configures the exact-match cache; the default -1
	// disables it, matching the OVS *kernel* datapath the paper's
	// Kubernetes demo exercises (the kernel datapath has no EMC). Set to
	// +N for the userspace-datapath ablation.
	EMCEntries int
	// SMC enables the OVS 2.10 signature-match cache tier — the
	// post-paper hierarchy variant whose huge fingerprint table shields
	// warm flows from the mask scan.
	SMC bool
	// SortByHits enables the sorted-TSS mitigation in the megaflow cache.
	SortByHits bool
	// StagedPruning enables staged subtable lookups with signature/ports
	// pruning and EWMA scan ranking in the megaflow tier — the OVS
	// countermeasure whose curve cmd/figures plots next to vanilla and
	// SMC: the mask population still explodes, but the victim's sweep
	// skips the covert ladder, so throughput holds.
	StagedPruning bool
	// CostSamples is the per-tick measurement batch; default 64.
	CostSamples int
}

func (c *Fig3Config) setDefaults() {
	if c.Duration == 0 {
		c.Duration = 150
	}
	if c.AttackStart == 0 {
		c.AttackStart = 60
	}
	if c.Attack == nil {
		c.Attack = attack.ThreeField()
	}
	if c.VictimGbps == 0 {
		c.VictimGbps = 0.95
	}
	if c.VictimFlows == 0 {
		c.VictimFlows = 8
	}
	if c.FrameLen == 0 {
		c.FrameLen = 1514
	}
	if c.EMCEntries == 0 {
		c.EMCEntries = -1
	}
	if c.CostSamples == 0 {
		c.CostSamples = 64
	}
}

// Fig3Result carries the regenerated series and summary numbers.
type Fig3Result struct {
	Throughput *metrics.Series // victim Gbps per second
	Masks      *metrics.Series // megaflow mask count per second
	Megaflows  *metrics.Series // megaflow entry count per second

	MeanBefore float64 // mean victim Gbps before the attack
	MeanAfter  float64 // mean victim Gbps once the attack is resident
	PeakMasks  float64
}

// Degradation returns the fractional throughput loss (0..1).
func (r *Fig3Result) Degradation() float64 {
	if r.MeanBefore == 0 {
		return 0
	}
	return 1 - r.MeanAfter/r.MeanBefore
}

func (r *Fig3Result) String() string {
	return fmt.Sprintf("victim %.3f -> %.3f Gbps (%.0f%% degradation), peak %d megaflow masks",
		r.MeanBefore, r.MeanAfter, r.Degradation()*100, int(r.PeakMasks))
}

// RunFig3 reproduces the paper's Fig. 3 timeline on a two-tenant
// Kubernetes-style cluster: victim client/server pods and attacker pods
// share a hypervisor; at AttackStart the attacker installs its policy via
// the CMS and starts the covert stream; the victim's iperf throughput and
// the megaflow cache population are sampled every second.
func RunFig3(cfg Fig3Config) (*Fig3Result, error) {
	cfg.setDefaults()

	cluster := cms.NewCluster()
	cluster.SwitchOpts = []dataplane.Option{
		dataplane.WithEMC(cache.EMCConfig{Entries: cfg.EMCEntries}),
		dataplane.WithMegaflow(cache.MegaflowConfig{SortByHits: cfg.SortByHits}),
		dataplane.WithClassifier(classifier.Config{}),
	}
	if cfg.SMC {
		cluster.SwitchOpts = append(cluster.SwitchOpts, dataplane.WithSMC(cache.SMCConfig{}))
	}
	if cfg.StagedPruning {
		cluster.SwitchOpts = append(cluster.SwitchOpts, dataplane.WithStagedPruning())
	}
	// Cache maintenance is owned by the clock-driven revalidator actor; the
	// default config (one round per tick, 10-tick max-idle, generous dump
	// rate) reproduces the legacy inline sweep exactly on this timeline.
	rev := revalidator.New(revalidator.Config{})
	cluster.AttachRevalidator(rev)
	if _, err := cluster.AddNode("server-1"); err != nil {
		return nil, err
	}
	victimSrv, err := cluster.DeployPod("victim-corp", "iperf-server", "server-1")
	if err != nil {
		return nil, err
	}
	attackerPod, err := cluster.DeployPod("mallory", "probe", "server-1")
	if err != nil {
		return nil, err
	}
	sw := victimSrv.Node.Switch

	// The victim protects its own service with an ordinary policy: allow
	// its client subnet to the iperf port, deny the rest — exactly the
	// kind of microsegmentation the paper's intro motivates.
	victimClient := netip.MustParseAddr("10.10.0.5")
	if err := cluster.ApplyPolicy("victim-corp", "iperf-server", &cms.Policy{
		Name: "iperf-ingress",
		Ingress: []acl.Entry{{
			Src:     netip.PrefixFrom(victimClient, 24).Masked(),
			Proto:   6,
			DstPort: acl.Port(5201),
		}},
	}); err != nil {
		return nil, err
	}

	victim := traffic.NewVictim(traffic.VictimConfig{
		Src:      victimClient,
		Dst:      victimSrv.IP,
		Flows:    cfg.VictimFlows,
		InPort:   victimSrv.Port,
		FrameLen: cfg.FrameLen,
	})

	atk := cfg.Attack
	atk.DstIP = attackerPod.IP
	covertKeys, err := atk.Keys()
	if err != nil {
		return nil, err
	}
	for i := range covertKeys {
		covertKeys[i].Set(flow.FieldInPort, uint64(attackerPod.Port))
	}
	// The covert stream enters through the frame-first door like everything
	// else: the attack's wire frames (attack.Frames) replayed in bursts at
	// the attacker pod's port.
	covertFrames, err := atk.Frames()
	if err != nil {
		return nil, err
	}
	replay := traffic.NewReplayer(covertKeys).WithFrames(covertFrames, attackerPod.Port)
	covertPPS := cfg.CovertPPS
	if covertPPS == 0 {
		// Cycle the full sequence every 2.5 s: fast enough to beat the
		// 10 s idle timeout, and 1.7 Mbps at 64-byte frames for the
		// 8192-packet sequence — inside the paper's 1-2 Mbps budget.
		covertPPS = float64(len(covertKeys)) / 2.5
	}
	pacer := &traffic.Pacer{PPS: covertPPS}

	offeredPPS := PPSFor(cfg.VictimGbps, cfg.FrameLen)

	res := &Fig3Result{
		Throughput: &metrics.Series{Name: "victim_gbps"},
		Masks:      &metrics.Series{Name: "mf_masks"},
		Megaflows:  &metrics.Series{Name: "mf_entries"},
	}

	injected := false
	var covertBurst dataplane.FrameBatch
	var covertOut []dataplane.Decision
	for t := 0; t < cfg.Duration; t++ {
		now := uint64(t)
		// 1. Attacker: inject the policy just before streaming starts.
		if !injected && t >= cfg.AttackStart {
			theACL, err := atk.BuildACL()
			if err != nil {
				return nil, err
			}
			if err := cluster.ApplyPolicy("mallory", "probe", &cms.Policy{
				Name:                "innocuous-whitelist",
				Ingress:             theACL.Entries,
				AllowSrcPortFilters: true,
			}); err != nil {
				return nil, err
			}
			injected = true
		}
		// 2. Covert stream for this tick, as one wire burst.
		if injected {
			covertBurst.Reset()
			for i := pacer.Take(1); i > 0; i-- {
				covertBurst.Append(replay.NextFrame())
			}
			covertOut = sw.ProcessFrames(now, &covertBurst, covertOut)
		}
		// 3. Victim throughput: measure real per-packet cost now.
		cost := MeasureCost(sw, victim, now, cfg.CostSamples)
		pps := Throughput(cost, offeredPPS)
		res.Throughput.Add(float64(t), Gbps(pps, cfg.FrameLen))
		res.Masks.Add(float64(t), float64(sw.Megaflow().NumMasks()))
		res.Megaflows.Add(float64(t), float64(sw.Megaflow().Len()))
		// 4. Revalidator round (the actor decides whether one is due).
		rev.Tick(now)
	}

	res.MeanBefore = metrics.Summarize(res.Throughput.Window(float64(cfg.AttackStart)/2, float64(cfg.AttackStart))).Mean
	settle := cfg.AttackStart + 10
	if settle > cfg.Duration {
		settle = cfg.Duration - 1
	}
	res.MeanAfter = metrics.Summarize(res.Throughput.Window(float64(settle), float64(cfg.Duration))).Mean
	res.PeakMasks = metrics.Summarize(res.Masks.V).Max
	return res, nil
}

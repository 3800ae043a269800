package scenario

import (
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"policyinject/internal/acl"
	"policyinject/internal/cache"
	"policyinject/internal/chaos"
	"policyinject/internal/cms"
	"policyinject/internal/conntrack"
	"policyinject/internal/dataplane"
	"policyinject/internal/guard"
	"policyinject/internal/metrics"
	"policyinject/internal/mitigation"
	"policyinject/internal/pkt"
	"policyinject/internal/revalidator"
	"policyinject/internal/sim"
	"policyinject/internal/telemetry"
	"policyinject/internal/traffic"
)

// Result is the outcome of running one pack: one VariantRun per declared
// variant plus the evaluated expectations. Reporters render this type.
type Result struct {
	Pack string
	File string
	Mode string
	Seed uint64

	Runs   []*VariantRun
	Checks []Check
}

// Passed reports whether every expectation held.
func (r *Result) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// VariantRun is one executed variant: the recorded timeline (timeline
// mode), the mitigation outcomes (matrix mode), and the summary metrics
// expectations assert against.
type VariantRun struct {
	Variant  string
	Timeline *metrics.Group // nil in matrix mode

	// Summary maps metric name -> value. Timeline metrics: peak_masks,
	// final_masks, final_entries, upcalls, denied, allowed, install_err,
	// and with a revalidator flow_limit_initial/flow_limit_final/
	// overruns/limit_evicted; wall measurement adds mean_before/
	// mean_after/degradation; conntrack adds ct_peak/ct_final. Matrix
	// metrics are "<variant>.masks", "<variant>.slowdown",
	// "<variant>.flow_limit", "<variant>.avg_scan", "<variant>.ns_before",
	// "<variant>.ns_after".
	Summary map[string]float64

	Outcomes []mitigation.Outcome // matrix mode only
}

// Check is one evaluated expectation.
type Check struct {
	Expectation
	Got     float64
	Pass    bool
	Missing bool // the metric was not produced by the run
}

func (c Check) String() string {
	verdict := "ok"
	if !c.Pass {
		verdict = "FAIL"
	}
	target := c.Metric
	if c.Variant != "" {
		target = c.Variant + ": " + c.Metric
	}
	if c.Missing {
		return fmt.Sprintf("%-4s %s %s %g (metric missing)", verdict, target, c.Op, c.Value)
	}
	return fmt.Sprintf("%-4s %s %s %g (got %g)", verdict, target, c.Op, c.Value, c.Got)
}

// RunOptions override pack knobs at run time (the cmd-line flags of
// cmd/scenario and cmd/figures). Zero values defer to the pack.
type RunOptions struct {
	Seed        uint64 // 0: pack seed
	Duration    int    // 0: pack duration
	AttackStart int    // 0: pack attack start
	Measure     string // "": pack measure mode
	CostSamples int    // 0: pack cost_samples

	// Telemetry is the live instrument registry timeline runs record
	// into (dataplane, revalidator, guards). Nil uses a private
	// registry: the run is still instrumented — timeline cache gauges
	// are sourced from registry snapshots either way — but nothing
	// outlives the run.
	Telemetry *telemetry.Registry
}

// Run executes every variant of the pack and evaluates its expectations.
func Run(p *Pack, opt RunOptions) (*Result, error) {
	seed := p.Seed
	if opt.Seed != 0 {
		seed = opt.Seed
	}
	res := &Result{Pack: p.Name, File: p.File, Mode: p.Mode, Seed: seed}
	for _, v := range p.Variants {
		var (
			run *VariantRun
			err error
		)
		if v.Mode == "matrix" {
			run, err = runMatrix(v, opt)
		} else {
			run, err = runTimeline(v, opt)
		}
		if err != nil {
			return nil, fmt.Errorf("pack %s, variant %s: %w", p.Name, v.Variant, err)
		}
		run.Variant = v.Variant
		res.Runs = append(res.Runs, run)
	}
	res.Checks = checkExpectations(p, res)
	return res, nil
}

// checkExpectations evaluates the base document's expect list: Variant
// targets a pack variant by name (or, in matrix mode, a mitigation
// variant on the first run); empty targets the first run.
func checkExpectations(p *Pack, res *Result) []Check {
	var checks []Check
	for _, e := range p.Expect {
		c := Check{Expectation: e}
		run := res.Runs[0]
		key := e.Metric
		if e.Variant != "" {
			found := false
			for _, r := range res.Runs {
				if r.Variant == e.Variant {
					run, found = r, true
					break
				}
			}
			if !found {
				// Matrix outcome addressing on the first run.
				key = e.Variant + "." + e.Metric
			}
		}
		got, ok := run.Summary[key]
		if !ok {
			c.Missing = true
			checks = append(checks, c)
			continue
		}
		c.Got = got
		c.Pass = e.check(got)
		checks = append(checks, c)
	}
	return checks
}

// datapathOptions lowers a DatapathSpec onto dataplane.New options.
func datapathOptions(d DatapathSpec) []dataplane.Option {
	var opts []dataplane.Option
	if !d.EMC {
		opts = append(opts, dataplane.WithoutEMC())
	} else if d.EMCEntries != 0 {
		opts = append(opts, dataplane.WithEMC(cache.EMCConfig{Entries: d.EMCEntries}))
	}
	mf := cache.MegaflowConfig{
		SortByHits: d.SortByHits, SortEvery: d.SortEvery,
		MaxMasks: d.MaxMasks, MaskEvictLRU: d.MaskEvictLRU,
	}
	if mf != (cache.MegaflowConfig{}) {
		opts = append(opts, dataplane.WithMegaflow(mf))
	}
	if d.SMC {
		opts = append(opts, dataplane.WithSMC(cache.SMCConfig{}))
	}
	if d.StagedPruning {
		opts = append(opts, dataplane.WithStagedPruning())
	}
	if d.Conntrack {
		opts = append(opts, dataplane.WithConntrack(conntrack.Config{
			MaxConns: d.MaxConns, IdleTimeout: d.MaxIdle,
		}))
	}
	return opts
}

// buildRevalidator lowers a RevalSpec; nil spec means the stock default.
// The overload controller (the kill-switch, when guards declare one)
// hooks into every configuration, including the default.
func buildRevalidator(r *RevalSpec, overload revalidator.OverloadController) *revalidator.Revalidator {
	if r == nil {
		return revalidator.New(revalidator.Config{Overload: overload})
	}
	if r.Disabled {
		return nil
	}
	return revalidator.New(revalidator.Config{
		Interval:     r.Interval,
		Workers:      r.Workers,
		DumpRate:     r.DumpRate,
		FlowLimit:    r.FlowLimit,
		MinFlowLimit: r.MinFlowLimit,
		GrowStep:     r.GrowStep,
		FixedLimit:   r.FixedLimit,
		MaxIdle:      r.MaxIdle,
		MaxHard:      r.MaxHard,
		PolicyCheck:  r.PolicyCheck,
		Overload:     overload,
	})
}

// defaultVictimPolicy is the whitelist a pack's victim gets when it
// declares none: allow the client's /24 to the iperf port, deny the rest.
func defaultVictimPolicy(client netip.Addr) *PolicySpec {
	return &PolicySpec{Entries: []EntrySpec{{
		Src:     netip.PrefixFrom(client, 24).Masked(),
		Proto:   6,
		DstPort: acl.Port(5201),
	}}}
}

// applyPolicySpec installs a pack policy through the CMS.
func applyPolicySpec(cluster *cms.Cluster, tenant, pod, name string, ps *PolicySpec) error {
	pol := &cms.Policy{Name: name, Stateful: ps.Stateful, ExplicitVerdicts: true}
	for _, e := range ps.Entries {
		pol.Ingress = append(pol.Ingress, e.Entry())
		if !e.SrcPort.Any() {
			pol.AllowSrcPortFilters = true
		}
	}
	return cluster.ApplyPolicy(tenant, pod, pol)
}

// stream is one live background stream during a timeline run.
type stream struct {
	spec StreamSpec
	src  traffic.FrameSource
	pace traffic.Pacer
}

func (s *stream) active(t, duration int) bool {
	stop := s.spec.Stop
	if stop == 0 {
		stop = duration
	}
	return t >= s.spec.Start && t < stop
}

// buildStream instantiates a StreamSpec against its target pod. Pcap
// paths resolve relative to the pack file's directory.
func buildStream(spec StreamSpec, target *cms.Pod, seed uint64, packFile string) (*stream, error) {
	s := &stream{spec: spec, pace: traffic.Pacer{PPS: spec.PPS}}
	switch spec.Kind {
	case "mix":
		s.src = traffic.NewMix(traffic.MixConfig{
			Seed:     seed,
			NFlows:   spec.Flows,
			Subnet:   spec.Subnet,
			DstIP:    target.IP,
			InPort:   target.Port,
			Skew:     spec.Skew,
			FrameLen: spec.FrameLen,
		})
	case "pcap":
		path := spec.File
		if !filepath.IsAbs(path) && packFile != "" {
			path = filepath.Join(filepath.Dir(packFile), path)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("stream %s: %w", spec.Name, err)
		}
		frames, err := pkt.ReadPcap(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("stream %s: %s: %w", spec.Name, path, err)
		}
		if len(frames) == 0 {
			return nil, fmt.Errorf("stream %s: %s holds no frames", spec.Name, path)
		}
		s.src = &pcapReplay{frames: frames, inPort: target.Port}
	default:
		return nil, fmt.Errorf("stream %s: unknown kind %q", spec.Name, spec.Kind)
	}
	return s, nil
}

// pcapReplay cycles a capture's frames through the target port.
type pcapReplay struct {
	frames [][]byte
	inPort uint32
	next   int
}

func (p *pcapReplay) NextFrame() ([]byte, uint32) {
	f := p.frames[p.next]
	p.next = (p.next + 1) % len(p.frames)
	return f, p.inPort
}

// runTimeline executes one effective timeline pack: the fig-3 cluster
// shape (one hypervisor node, victim pod + optional attacker pod +
// declared tenant pods), the declared traffic, and the attack schedule.
// Each tick runs churn -> inject -> covert burst -> background streams ->
// victim drive -> revalidator round -> gauge recording, so the recorded
// gauges show each tick's state after its maintenance round.
func runTimeline(p *Pack, opt RunOptions) (*VariantRun, error) {
	duration := p.Duration
	if opt.Duration > 0 {
		duration = opt.Duration
	}
	seed := p.Seed
	if opt.Seed != 0 {
		seed = opt.Seed
	}
	mode := p.Measure.Mode
	if opt.Measure != "" {
		mode = opt.Measure
	}
	samples := p.Measure.CostSamples
	if opt.CostSamples > 0 {
		samples = opt.CostSamples
	}
	attackStart, attackStop := 0, 0
	if p.Attack != nil {
		attackStart = p.Attack.Start
		if opt.AttackStart > 0 {
			attackStart = opt.AttackStart
		}
		attackStop = p.Attack.Stop
	}

	if statefulPolicies(p) && !p.Datapath.Conntrack {
		return nil, fmt.Errorf("stateful policy requires datapath.conntrack: true")
	}

	// Overload guards and fault injectors, built before the cluster so
	// their hooks ride into every switch the nodes assemble.
	var grd *guard.Guard
	if p.Guards != nil {
		grd = p.Guards.Build()
	}
	var inj *chaos.Injector
	if len(p.Faults) > 0 {
		var err error
		inj, err = chaos.New(chaos.Config{Seed: seed, Faults: p.Faults})
		if err != nil {
			return nil, err
		}
	}

	// Live instruments: the caller's registry, or a private one so the
	// timeline's cache gauges always flow through the same snapshot
	// path regardless of whether anyone is scraping.
	reg := opt.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}

	cluster := cms.NewCluster()
	cluster.SwitchOpts = datapathOptions(p.Datapath)
	cluster.SwitchOpts = append(cluster.SwitchOpts, dataplane.WithTelemetry(reg))
	if grd != nil && grd.Admission != nil {
		cluster.SwitchOpts = append(cluster.SwitchOpts, dataplane.WithUpcallGuard(grd.Admission))
	}
	if grd != nil && grd.Masks != nil {
		cluster.SwitchOpts = append(cluster.SwitchOpts, dataplane.WithMaskGuard(grd.Masks))
	}
	if inj != nil {
		cluster.SwitchOpts = append(cluster.SwitchOpts, dataplane.WithTierWrapper(inj.WrapTier))
	}
	var overload revalidator.OverloadController
	if grd != nil && grd.Kill != nil {
		overload = grd.Kill
	}
	rev := buildRevalidator(p.Reval, overload)
	if rev != nil {
		rev.SetTelemetry(reg)
		cluster.AttachRevalidator(rev)
	}
	if grd != nil {
		grd.SetTelemetry(reg)
	}
	if grd != nil && grd.Masks != nil {
		cluster.AttachPortLedger(grd.Masks)
	}
	if _, err := cluster.AddNode("server-1"); err != nil {
		return nil, err
	}
	victimSrv, err := cluster.DeployPod(p.Victim.Tenant, p.Victim.Pod, "server-1")
	if err != nil {
		return nil, err
	}
	var attackerPod *cms.Pod
	if p.Attack != nil {
		attackerPod, err = cluster.DeployPod("mallory", "probe", "server-1")
		if err != nil {
			return nil, err
		}
	}
	sw := victimSrv.Node.Switch

	victimPolicy := p.Victim.Policy
	if victimPolicy == nil {
		victimPolicy = defaultVictimPolicy(p.Victim.Client)
	}
	if err := applyPolicySpec(cluster, p.Victim.Tenant, p.Victim.Pod, "iperf-ingress", victimPolicy); err != nil {
		return nil, err
	}

	// Tenant pods after the victim and attacker, so adding tenants to a
	// pack never moves the victim's or the attacker's IP and port.
	for _, t := range p.Tenants {
		pod, err := cluster.DeployPod(t.Name, t.Pod, "server-1")
		if err != nil {
			return nil, err
		}
		if t.Policy != nil {
			if err := applyPolicySpec(cluster, t.Name, t.Pod, t.Name+"-ingress", t.Policy); err != nil {
				return nil, err
			}
		}
		_ = pod
	}

	podFor := func(name string) (*cms.Pod, error) {
		if name == "victim" {
			return victimSrv, nil
		}
		if pod := cluster.Pod(name); pod != nil {
			return pod, nil
		}
		return nil, fmt.Errorf("stream target pod %q not deployed", name)
	}

	var streams []*stream
	addStream := func(spec StreamSpec) error {
		target, err := podFor(spec.To)
		if err != nil {
			return err
		}
		s, err := buildStream(spec, target, seed+uint64(len(streams)+1), p.File)
		if err != nil {
			return err
		}
		streams = append(streams, s)
		return nil
	}
	for _, spec := range p.Streams {
		if err := addStream(spec); err != nil {
			return nil, err
		}
	}
	for _, t := range p.Tenants {
		if t.Stream != nil {
			if err := addStream(*t.Stream); err != nil {
				return nil, err
			}
		}
	}

	frameLen := p.Victim.FrameLen
	if frameLen == 0 {
		frameLen = 1514
	}
	victim := traffic.NewVictim(traffic.VictimConfig{
		Src:      p.Victim.Client,
		Dst:      victimSrv.IP,
		Flows:    p.Victim.Flows,
		InPort:   victimSrv.Port,
		FrameLen: frameLen,
	})
	offeredPPS := sim.PPSFor(p.Victim.Gbps, frameLen)

	// Covert stream: the attack's wire frames replayed at the attacker
	// pod's port, paced to cycle the full sequence every Cycle ticks.
	var (
		replay *traffic.FrameReplayer
		pacer  traffic.Pacer
	)
	if p.Attack != nil {
		atk, err := p.Attack.Build()
		if err != nil {
			return nil, err
		}
		atk.DstIP = attackerPod.IP
		covertKeys, err := atk.Keys()
		if err != nil {
			return nil, err
		}
		covertFrames, err := atk.Frames()
		if err != nil {
			return nil, err
		}
		replay = traffic.NewReplayer(covertKeys).WithFrames(covertFrames, attackerPod.Port)
		pps := p.Attack.PPS
		if pps == 0 {
			pps = float64(len(covertKeys)) / p.Attack.Cycle
		}
		pacer = traffic.Pacer{PPS: pps}
	}

	// Churn: the rotated policy re-applied every Period ticks.
	var churnBase *PolicySpec
	churnTenant, churnPod := "", ""
	if p.Churn != nil {
		churnTenant, churnPod = p.Churn.Tenant, p.Churn.Pod
		if churnTenant == "" {
			churnTenant = p.Victim.Tenant
		}
		if churnPod == "" {
			churnPod = p.Victim.Pod
		}
		if churnPod == p.Victim.Pod {
			churnBase = victimPolicy
		} else {
			for _, t := range p.Tenants {
				if t.Pod == churnPod && t.Policy != nil {
					churnBase = t.Policy
				}
			}
		}
		if churnBase == nil {
			churnBase = &PolicySpec{}
		}
	}

	run := &VariantRun{Timeline: &metrics.Group{}, Summary: map[string]float64{}}
	tl := run.Timeline
	initialLimit := 0
	if rev != nil {
		initialLimit = rev.FlowLimit()
	}
	ct := sw.Conntrack()
	ctPeak := 0

	injected := false
	var covertBurst, streamBurst, victimBurst dataplane.FrameBatch
	var out []dataplane.Decision
	for t := 0; t < duration; t++ {
		now := uint64(t)

		// 1. Control plane: policy churn, then the attacker's injection.
		if c := p.Churn; c != nil && t >= c.Start && (c.Stop == 0 || t < c.Stop) && (t-c.Start)%c.Period == 0 {
			r := ((t - c.Start) / c.Period) % c.Rotate
			rotated := &PolicySpec{Stateful: churnBase.Stateful}
			rotated.Entries = append(rotated.Entries, churnBase.Entries...)
			rotated.Entries = append(rotated.Entries, EntrySpec{
				Src:     netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 200, byte(r), 0}), 24),
				Proto:   6,
				DstPort: acl.Port(5201),
				Comment: fmt.Sprintf("churn rotation %d", r),
			})
			if err := applyPolicySpec(cluster, churnTenant, churnPod, "churned-ingress", rotated); err != nil {
				return nil, err
			}
		}
		if p.Attack != nil && !injected && t >= attackStart {
			atk, err := p.Attack.Build()
			if err != nil {
				return nil, err
			}
			atk.DstIP = attackerPod.IP
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

		// Active faults fire before the tick's traffic, so a filled
		// conntrack table is what the tick's commits bounce off.
		if inj != nil {
			inj.FillConntrack(now, ct)
		}

		// 2. Covert stream for this tick, as one wire burst. An attack
		// window with a stop halts the replay there (the malicious ACL
		// stays installed — only the covert pressure ends).
		if injected && (attackStop == 0 || t < attackStop) {
			covertBurst.Reset()
			for i := pacer.Take(1); i > 0; i-- {
				covertBurst.Append(replay.NextFrame())
			}
			out = sw.ProcessFrames(now, &covertBurst, out)
		}

		// 3. Background streams.
		for _, s := range streams {
			if !s.active(t, duration) {
				continue
			}
			streamBurst.Reset()
			for i := s.pace.Take(1); i > 0; i-- {
				streamBurst.Append(s.src.NextFrame())
			}
			out = sw.ProcessFrames(now, &streamBurst, out)
		}

		// 4. Victim drive: timed burst (wall) or a fixed untimed burst
		// (off — fully deterministic).
		gbps := 0.0
		if mode == "wall" {
			cost := sim.MeasureCost(sw, victim, now, samples)
			gbps = sim.Gbps(sim.Throughput(cost, offeredPPS), frameLen)
		} else {
			victimBurst.Reset()
			for i := 0; i < samples; i++ {
				victimBurst.Append(victim.NextFrame())
			}
			out = sw.ProcessFrames(now, &victimBurst, out)
		}

		// 5. Maintenance round (unless a stall fault suppresses it), then
		// record the tick's gauges.
		if rev != nil && (inj == nil || !inj.StallRevalidator(now)) {
			rev.Tick(now)
		}
		// Publish the tick's cache/guard gauges into the registry, then
		// record the timeline from a snapshot: the live scrape endpoint
		// and the pack goldens read the same numbers by construction.
		sw.PublishTelemetry()
		if grd != nil {
			grd.PublishTelemetry()
		}
		snap := reg.Snapshot()
		ts := float64(t)
		if rev != nil {
			rev.Observe(tl, ts)
		}
		if grd != nil {
			grd.Observe(tl, ts)
		}
		if inj != nil {
			inj.Observe(tl, ts)
		}
		mfEntries, _ := snap.GaugeValue("dp_mf_entries")
		mfMasks, _ := snap.GaugeValue("dp_mf_masks")
		tl.Observe(ts, "mf_entries", mfEntries)
		tl.Observe(ts, "mf_masks", mfMasks)
		if mode == "wall" {
			tl.Observe(ts, "victim_gbps", gbps)
		}
		if ct != nil {
			ctEntries, _ := snap.GaugeValue("dp_ct_entries")
			if n := int(ctEntries); n > ctPeak {
				ctPeak = n
			}
			tl.Observe(ts, "ct_entries", ctEntries)
		}
	}

	// Summary metrics.
	masks := tl.Series("mf_masks")
	entries := tl.Series("mf_entries")
	run.Summary["peak_masks"] = metrics.Summarize(masks.V).Max
	run.Summary["final_masks"] = masks.V[masks.Len()-1]
	run.Summary["final_entries"] = entries.V[entries.Len()-1]
	c := sw.Counters()
	run.Summary["upcalls"] = float64(c.Upcalls)
	run.Summary["allowed"] = float64(c.Allowed)
	run.Summary["denied"] = float64(c.Denied)
	run.Summary["install_err"] = float64(c.InstallErr)
	if mode == "wall" {
		gbps := tl.Series("victim_gbps")
		before, after := meanWindows(gbps, p.Attack != nil, attackStart, duration)
		run.Summary["mean_before"] = before
		run.Summary["mean_after"] = after
		if before > 0 {
			run.Summary["degradation"] = 1 - after/before
		}
	}
	if rev != nil {
		st := rev.Stats()
		run.Summary["flow_limit_initial"] = float64(initialLimit)
		run.Summary["flow_limit_final"] = float64(st.FlowLimit)
		run.Summary["overruns"] = float64(st.Overruns)
		run.Summary["limit_evicted"] = float64(st.TotalLimitEvicted)
	}
	if ct != nil {
		run.Summary["ct_peak"] = float64(ctPeak)
		run.Summary["ct_final"] = float64(ct.Len())
	}
	if attackStop > 0 {
		// The mask population the moment the covert pressure ended — the
		// baseline recovery is measured against.
		run.Summary["masks_attack_end"] = masks.At(float64(attackStop - 1))
	}
	if grd != nil {
		for k, v := range grd.Summary() {
			run.Summary[k] = v
		}
	}
	if inj != nil {
		for k, v := range inj.Summary() {
			run.Summary[k] = v
		}
	}
	return run, nil
}

// meanWindows computes the pre/post-attack throughput means with the
// Fig. 3 windows: before = [start/2, start), after = [start+10, end).
// Without an attack both windows cover the whole run.
func meanWindows(s *metrics.Series, attacked bool, start, duration int) (before, after float64) {
	if !attacked {
		m := metrics.Summarize(s.V).Mean
		return m, m
	}
	before = metrics.Summarize(s.Window(float64(start)/2, float64(start))).Mean
	settle := start + 10
	if settle > duration {
		settle = duration - 1
	}
	after = metrics.Summarize(s.Window(float64(settle), float64(duration))).Mean
	return before, after
}

// statefulPolicies reports whether any policy in the pack is stateful.
func statefulPolicies(p *Pack) bool {
	if p.Victim.Policy != nil && p.Victim.Policy.Stateful {
		return true
	}
	for _, t := range p.Tenants {
		if t.Policy != nil && t.Policy.Stateful {
			return true
		}
	}
	return false
}

// runMatrix executes one matrix pack: the pack's attack evaluated against
// the declared mitigation variants via mitigation.Evaluate.
func runMatrix(p *Pack, opt RunOptions) (*VariantRun, error) {
	atk, err := p.Attack.Build()
	if err != nil {
		return nil, err
	}
	variants := make([]mitigation.Variant, 0, len(p.Matrix.Variants))
	for _, name := range p.Matrix.Variants {
		v, err := mitigationVariant(name)
		if err != nil {
			return nil, err
		}
		variants = append(variants, v)
	}
	samples := p.Matrix.Samples
	if opt.CostSamples > 0 {
		samples = opt.CostSamples
	}
	outcomes, err := mitigation.Evaluate(atk, variants, samples)
	if err != nil {
		return nil, err
	}
	run := &VariantRun{Summary: map[string]float64{}, Outcomes: outcomes}
	for _, o := range outcomes {
		run.Summary[o.Name+".masks"] = float64(o.Masks)
		run.Summary[o.Name+".slowdown"] = o.Slowdown
		run.Summary[o.Name+".flow_limit"] = float64(o.FlowLimit)
		run.Summary[o.Name+".avg_scan"] = o.AvgScan
		run.Summary[o.Name+".ns_before"] = float64(o.CostBefore.Nanoseconds())
		run.Summary[o.Name+".ns_after"] = float64(o.CostAfter.Nanoseconds())
	}
	return run, nil
}

// mitigationVariant resolves a matrix variant name. Fixed names map to
// the stock constructors; "mask-cap:N" and "cap-lru-sort:N" take the
// quota as a parameter.
func mitigationVariant(name string) (mitigation.Variant, error) {
	if arg, ok := strings.CutPrefix(name, "mask-cap:"); ok {
		n, err := strconv.Atoi(arg)
		if err != nil || n <= 0 {
			return mitigation.Variant{}, fmt.Errorf("variant %q: mask-cap wants a positive integer", name)
		}
		return mitigation.MaskCap(n), nil
	}
	if arg, ok := strings.CutPrefix(name, "cap-lru-sort:"); ok {
		n, err := strconv.Atoi(arg)
		if err != nil || n <= 0 {
			return mitigation.Variant{}, fmt.Errorf("variant %q: cap-lru-sort wants a positive integer", name)
		}
		return mitigation.MaskCapLRUSorted(n), nil
	}
	switch name {
	case "vanilla":
		return mitigation.Vanilla(), nil
	case "no-emc":
		return mitigation.NoEMC(), nil
	case "smc":
		return mitigation.SMC(), nil
	case "emc+smc":
		return mitigation.EMCPlusSMC(), nil
	case "sorted-tss":
		return mitigation.SortedTSS(), nil
	case "staged-pruning":
		return mitigation.StagedPruning(), nil
	case "stateful-sg":
		return mitigation.Stateful(), nil
	case "cache-less":
		return mitigation.CacheLess(), nil
	case "fixed-limit":
		return mitigation.FixedFlowLimit(), nil
	case "adaptive-limit":
		return mitigation.AdaptiveFlowLimit(), nil
	}
	return mitigation.Variant{}, fmt.Errorf("unknown mitigation variant %q", name)
}

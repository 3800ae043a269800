// Command figures regenerates every table and figure of the paper's
// evaluation from the Go reproduction:
//
//	figures -fig 2b          paper Fig. 2b: megaflow table for the simple ACL
//	figures -fig masks       §2 mask-count table: 8 / 512 / 8192
//	figures -fig sweep       §1-§2 degradation claims: cost vs mask count
//	figures -fig 3           paper Fig. 3: victim throughput + megaflows over time
//	figures -fig flowlimit   revalidator flow-limit collapse under the 8192-mask attack
//	figures -fig guard       overload guards: kill-switch, admission breaker, mask quota
//	figures -fig mitigation  demo discussion: mitigation comparison
//	figures -fig all         everything above
//
// Output is plain text tables plus optional CSV/gnuplot blocks (-csv).
//
// The timeline and matrix figures (3, flowlimit, guard, mitigation) execute the
// corresponding embedded scenario packs (see scenarios/ and cmd/scenario);
// the remaining figures drive the dataplane directly.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"policyinject/internal/attack"
	"policyinject/internal/classifier"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/metrics"
	"policyinject/internal/mitigation"
	"policyinject/internal/scenario"
	"policyinject/internal/sim"
	"policyinject/scenarios"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 2b, masks, sweep, 3, flowlimit, guard, mitigation, all")
	csv := flag.Bool("csv", false, "also print CSV/gnuplot data blocks")
	duration := flag.Int("duration", 150, "fig 3: timeline length in seconds")
	attackStart := flag.Int("attack-start", 60, "fig 3: covert stream start second")
	quick := flag.Bool("quick", false, "fig 3: shrink to a 30s timeline with the 512-mask attack")
	flag.Parse()

	ok := false
	run := func(name string, f func(bool) error) {
		if *fig != "all" && *fig != name {
			return
		}
		ok = true
		if err := f(*csv); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	run("2b", fig2b)
	run("masks", figMasks)
	run("sweep", figSweep)
	run("3", func(csv bool) error { return fig3(csv, *duration, *attackStart, *quick) })
	run("flowlimit", func(csv bool) error { return figFlowLimit(csv, *quick) })
	run("guard", figGuard)
	run("mitigation", figMitigation)
	if !ok {
		fmt.Fprintf(os.Stderr, "figures: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

func header(title string) {
	fmt.Println()
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
}

// fig2b prints the exact megaflow table of paper Fig. 2b: the
// non-overlapping entries OVS synthesises for "allow 10.0.0.0/8, deny *",
// viewed through the first octet of ip_src.
func fig2b(bool) error {
	header("Fig. 2b — megaflow cache entries for ACL {allow ip_src=10.0.0.0/8; deny *}")

	var tbl flowtable.Table
	cls := classifier.New(classifier.Config{})
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, 0x0a000000)
	m.Mask.SetPrefix(flow.FieldIPSrc, 8)
	for _, r := range []flowtable.Rule{
		{Match: m, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}},
		{Priority: 0},
	} {
		cls.Insert(tbl.Insert(r))
	}

	// One probe per divergence depth, in the figure's row order.
	probes := []uint64{0x0a, 0x80, 0x40, 0x20, 0x10, 0x00, 0x0c, 0x08, 0x0b}
	out := &metrics.Table{Header: []string{"Key", "Mask", "Action"}}
	masks := map[flow.Mask]bool{}
	for _, p := range probes {
		var k flow.Key
		k.Set(flow.FieldIPSrc, p<<24)
		res := cls.Lookup(k)
		key := res.Megaflow.Key.Get(flow.FieldIPSrc) >> 24
		mask := res.Megaflow.Mask.Apply(flow.Key(flow.ExactMask)).Get(flow.FieldIPSrc) >> 24
		out.AddRow(fmt.Sprintf("%08b", key), fmt.Sprintf("%08b", mask), res.Rule.Action.String())
		masks[res.Megaflow.Mask] = true
	}
	fmt.Print(out.String())
	fmt.Printf("entries: %d, distinct masks: %d (paper: \"creates 8 masks and so 8 iterations\")\n",
		len(probes), len(masks))
	return nil
}

// figMasks prints the §2 mask-count table: predicted and injected masks
// for the three attack configurations.
func figMasks(bool) error {
	header("§2 mask counts — predicted vs injected on a live dataplane")
	out := &metrics.Table{Header: []string{"ACL fields", "predicted", "injected", "covert stream"}}
	for _, c := range []struct {
		name string
		atk  *attack.Attack
	}{
		{"ip_src/8 (Fig 2 illustration)", attack.SingleField()},
		{"ip_src + tp_dst (\"2 ACL rules\")", attack.TwoField()},
		{"ip_src + tp_dst + tp_src (Calico)", attack.ThreeField()},
	} {
		sw, err := buildAttackSwitch(c.atk)
		if err != nil {
			return err
		}
		v, err := c.atk.Execute(sw, 1)
		if err != nil {
			return err
		}
		out.AddRow(c.name, v.Predicted, v.Injected, c.atk.Plan(10).String())
	}
	fmt.Print(out.String())
	fmt.Println("paper: 8 masks (Fig 2b), 512 masks (\"slows to 10% of peak\"), 8192 (\"full-blown DoS\")")
	return nil
}

// buildAttackSwitch compiles the attack's ACL into a fresh switch.
func buildAttackSwitch(atk *attack.Attack) (*dataplane.Switch, error) {
	sw := dataplane.New("victim-hv")
	theACL, err := atk.BuildACL()
	if err != nil {
		return nil, err
	}
	rules, err := theACL.Compile()
	if err != nil {
		return nil, err
	}
	for _, r := range rules {
		sw.InstallRule(r)
	}
	return sw, nil
}

func figSweep(csv bool) error {
	header("Degradation sweep — TSS lookup cost vs megaflow mask count (E5)")
	res, err := sim.RunSweep([]int{1, 8, 64, 512, 2048, 8192}, 512)
	if err != nil {
		return err
	}
	fmt.Print(res.Table().String())
	fmt.Println("paper claims: 512 masks -> ~10% of peak; 8192 -> denial of service")
	if csv {
		for _, p := range res.Points {
			fmt.Printf("%d,%d,%.0f,%.4f\n", p.Masks, p.CostPerPkt.Nanoseconds(), p.PPS, p.RelativePeak)
		}
	}
	return nil
}

// loadPack pulls a pack from the embedded starter corpus.
func loadPack(file string) (*scenario.Pack, error) {
	p, err := scenario.LoadFS(scenarios.FS, file)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// runByName indexes a pack result's variant runs.
func runByName(res *scenario.Result, name string) (*scenario.VariantRun, error) {
	for _, r := range res.Runs {
		if r.Variant == name {
			return r, nil
		}
	}
	return nil, fmt.Errorf("pack %s has no variant %q", res.Pack, name)
}

// fig3Summary renders a timeline run's one-line Fig. 3 summary: victim
// throughput before and after the attack, and the peak mask count.
func fig3Summary(r *scenario.VariantRun) string {
	s := r.Summary
	return fmt.Sprintf("victim %.3f -> %.3f Gbps (%.0f%% degradation), peak %d megaflow masks",
		s["mean_before"], s["mean_after"], s["degradation"]*100, int(s["peak_masks"]))
}

// renamed returns a copy of a timeline series under a variant-qualified
// name, so the CSV blocks stay distinguishable to consumers.
func renamed(r *scenario.VariantRun, series, suffix string) *metrics.Series {
	s := *r.Timeline.Series(series)
	s.Name += suffix
	return &s
}

// fig3 runs the fig3 scenario pack (fig3-quick under -quick): the
// vanilla / smc / staged-pruning triple declared in scenarios/fig3.yaml,
// summarised one line per variant. The smc variant is the
// post-paper counterpoint (the huge signature-match cache keeps warm
// victim flows off the exploded mask scan); the pruned variant shows the
// OVS countermeasure pair rejecting the covert ladder without hash
// probes while the mask count still explodes.
func fig3(csv bool, duration, attackStart int, quick bool) error {
	header("Fig. 3 — OVS degradation in Kubernetes (victim throughput & megaflows)")
	file := "fig3.yaml"
	opt := scenario.RunOptions{Duration: duration, AttackStart: attackStart}
	if quick {
		file, opt = "fig3-quick.yaml", scenario.RunOptions{}
	}
	pack, err := loadPack(file)
	if err != nil {
		return err
	}
	res, err := scenario.Run(pack, opt)
	if err != nil {
		return err
	}
	vanilla, err := runByName(res, "vanilla")
	if err != nil {
		return err
	}
	smc, err := runByName(res, "smc")
	if err != nil {
		return err
	}
	pruned, err := runByName(res, "pruned")
	if err != nil {
		return err
	}
	fmt.Printf("vanilla: %s\n", fig3Summary(vanilla))
	fmt.Printf("smc:     %s\n", fig3Summary(smc))
	fmt.Printf("pruned:  %s\n", fig3Summary(pruned))
	thr := vanilla.Timeline.Series("victim_gbps")
	masks := vanilla.Timeline.Series("mf_masks")
	entries := vanilla.Timeline.Series("mf_entries")
	out := &metrics.Table{Header: []string{"t[s]", "victim_gbps", "victim_gbps(smc)", "victim_gbps(pruned)", "masks", "megaflows"}}
	for i := 0; i < thr.Len(); i += 5 {
		out.AddRow(thr.T[i], thr.V[i], smc.Timeline.Series("victim_gbps").V[i],
			pruned.Timeline.Series("victim_gbps").V[i], masks.V[i], entries.V[i])
	}
	fmt.Print(out.String())
	if csv {
		fmt.Println(metrics.CSV(thr, masks, entries))
		fmt.Println(metrics.CSV(renamed(smc, "victim_gbps", "_smc"),
			renamed(smc, "mf_masks", "_smc"), renamed(smc, "mf_entries", "_smc")))
		fmt.Println(metrics.CSV(renamed(pruned, "victim_gbps", "_pruned"),
			renamed(pruned, "mf_masks", "_pruned"), renamed(pruned, "mf_entries", "_pruned")))
	}
	return nil
}

// figFlowLimit plots the revalidator's flow-limit-vs-time curve under the
// 8192-mask attack, adaptive heuristic against the fixed-limit control:
// the limit collapses from the 200k ceiling to the 2k floor within a few
// dump rounds of the covert stream landing, while the control holds flat
// (and keeps every attacker flow resident).
func figFlowLimit(csv bool, quick bool) error {
	file := "flowlimit.yaml"
	masks := 8192
	if quick {
		// The quick pack runs the smaller attack against a harder-overrunning
		// dump, with a floor below the 512-flow residency, so the collapse
		// reaches the floor and the staleness trim engages within the short
		// timeline.
		file, masks = "flowlimit-quick.yaml", 512
	}
	header(fmt.Sprintf("Flow-limit collapse — revalidator backoff under the %d-mask attack", masks))
	pack, err := loadPack(file)
	if err != nil {
		return err
	}
	res, err := scenario.Run(pack, scenario.RunOptions{})
	if err != nil {
		return err
	}
	adaptive, err := runByName(res, "adaptive")
	if err != nil {
		return err
	}
	fixed, err := runByName(res, "fixed")
	if err != nil {
		return err
	}
	sum := func(r *scenario.VariantRun) string {
		s := r.Summary
		return fmt.Sprintf("flow limit %d -> %d (%d overrun dumps, %d flows trimmed by limit cuts)",
			int(s["flow_limit_initial"]), int(s["flow_limit_final"]), int(s["overruns"]), int(s["limit_evicted"]))
	}
	fmt.Printf("adaptive: %s\n", sum(adaptive))
	fmt.Printf("fixed:    %s\n", sum(fixed))
	limA, limF := adaptive.Timeline.Series("flow_limit"), fixed.Timeline.Series("flow_limit")
	out := &metrics.Table{Header: []string{
		"t", "flow_limit", "flow_limit(fixed)", "flows", "dump_units", "trimmed", "masks", "victim_gbps"}}
	for i := 0; i < limA.Len(); i += 5 {
		out.AddRow(limA.T[i], limA.V[i], limF.V[i],
			adaptive.Timeline.Series("flows_dumped").V[i],
			adaptive.Timeline.Series("dump_units").V[i],
			adaptive.Timeline.Series("evicted_limit").V[i],
			adaptive.Timeline.Series("mf_masks").V[i],
			adaptive.Timeline.Series("victim_gbps").V[i])
	}
	fmt.Print(out.String())
	fmt.Println("OVS heuristic: dump overruns 2x its interval -> limit cut by the overrun factor; healthy dumps regrow by 1000")
	if csv {
		fmt.Println(adaptive.Timeline.CSV())
		fmt.Println(metrics.CSV(renamed(fixed, "flow_limit", "_fixed")))
	}
	return nil
}

// figGuard runs the guard-killswitch pack: each overload guard alone
// against the 8192-mask attack, with the attack window closing at tick
// 80 so every variant also shows its recovery story. The table tracks
// the mask count per variant plus the kill-switch engagement gauge.
func figGuard(csv bool) error {
	header("Overload guards — kill-switch, admission breaker, mask quota vs the 8192-mask attack")
	pack, err := loadPack("guard-killswitch.yaml")
	if err != nil {
		return err
	}
	res, err := scenario.Run(pack, scenario.RunOptions{})
	if err != nil {
		return err
	}
	unguarded, err := runByName(res, "unguarded")
	if err != nil {
		return err
	}
	kill, err := runByName(res, "killswitch")
	if err != nil {
		return err
	}
	breaker, err := runByName(res, "breaker")
	if err != nil {
		return err
	}
	quota, err := runByName(res, "quota")
	if err != nil {
		return err
	}
	fmt.Printf("unguarded:  peak %d masks, flow limit ground to %d\n",
		int(unguarded.Summary["peak_masks"]), int(unguarded.Summary["flow_limit_final"]))
	fmt.Printf("killswitch: %d trip(s), recovered in %d revalidator ticks, %d entries resident at end\n",
		int(kill.Summary["killswitch_trips"]), int(kill.Summary["killswitch_recovery_ticks"]),
		int(kill.Summary["final_entries"]))
	fmt.Printf("breaker:    %d trip(s), %d upcalls shed, peak %d masks, flow limit held at %d\n",
		int(breaker.Summary["breaker_trips"]), int(breaker.Summary["upcalls_dropped"]),
		int(breaker.Summary["peak_masks"]), int(breaker.Summary["flow_limit_final"]))
	fmt.Printf("quota:      %d mask mints rejected, attacker capped at peak %d masks\n",
		int(quota.Summary["quota_rejects"]), int(quota.Summary["peak_masks"]))
	base := unguarded.Timeline.Series("mf_masks")
	out := &metrics.Table{Header: []string{
		"t", "masks", "masks(kill)", "engaged", "masks(breaker)", "masks(quota)"}}
	for i := 0; i < base.Len(); i += 5 {
		out.AddRow(base.T[i], base.V[i],
			kill.Timeline.Series("mf_masks").V[i],
			kill.Timeline.Series("killswitch_engaged").V[i],
			breaker.Timeline.Series("mf_masks").V[i],
			quota.Timeline.Series("mf_masks").V[i])
	}
	fmt.Print(out.String())
	fmt.Println("attack window closes at t=80; the kill-switch variant's mass-expiry and regrow is the recovery metric")
	if csv {
		fmt.Println(metrics.CSV(base, renamed(kill, "mf_masks", "_kill"),
			renamed(kill, "killswitch_engaged", "_kill"),
			renamed(breaker, "mf_masks", "_breaker"), renamed(quota, "mf_masks", "_quota")))
	}
	return nil
}

func figMitigation(bool) error {
	header("Mitigation comparison under the 512-mask attack (demo discussion)")
	pack, err := loadPack("mitigation-matrix.yaml")
	if err != nil {
		return err
	}
	res, err := scenario.Run(pack, scenario.RunOptions{})
	if err != nil {
		return err
	}
	fmt.Print(mitigation.Table(res.Runs[0].Outcomes).String())
	return nil
}

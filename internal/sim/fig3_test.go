package sim_test

import (
	"testing"

	"policyinject/internal/scenario"
	"policyinject/scenarios"
)

// preAttackFloor is the victim throughput, in Gbps, a Fig. 3 run must
// sustain before the attack lands: near its offered load, with margin for
// parallel test packages loading both cores.
const preAttackFloor = 0.75

// loadPack loads a pack from the embedded corpus.
func loadPack(t *testing.T, file string) *scenario.Pack {
	t.Helper()
	p, err := scenario.LoadFS(scenarios.FS, file)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// vanillaIndex returns the position of a Fig. 3 pack's vanilla variant,
// which is also the position of its run in the pack's result.
func vanillaIndex(t *testing.T, p *scenario.Pack) int {
	t.Helper()
	for i, v := range p.Variants {
		if v.Variant == "vanilla" {
			return i
		}
	}
	t.Fatalf("%s has no vanilla variant", p.Name)
	return -1
}

// runVariant runs a single variant pack and returns its run.
func runVariant(t *testing.T, v *scenario.Pack, opt scenario.RunOptions) *scenario.VariantRun {
	t.Helper()
	res, err := scenario.Run(&scenario.Pack{Name: v.Name, Variants: []*scenario.Pack{v}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res.Runs[0]
}

// checkPreAttackFloor performs a Fig. 3 run and asserts the victim
// saturated its offered load before the attack. Normal builds hold the
// absolute floor. The race detector slows the datapath several-fold, so
// under it the same share of the offer (0.75 of 0.95 Gbps) is taken of a
// calibration run instead: the same victim, in this process, with no
// attack. Calibrations bracket the run and the slower one counts, so a
// drift in machine speed between them does not fail the check.
func checkPreAttackFloor(t *testing.T, v *scenario.Pack, opt scenario.RunOptions, run func() *scenario.VariantRun) *scenario.VariantRun {
	t.Helper()
	calibrate := func() float64 {
		calib := *v
		calib.Attack = nil
		return preAttackFloor / v.Victim.Gbps * runVariant(t, &calib, opt).Summary["mean_before"]
	}
	floor := preAttackFloor
	if raceEnabled {
		floor = calibrate()
	}
	r := run()
	if raceEnabled {
		floor = min(floor, calibrate())
	}
	before := r.Summary["mean_before"]
	t.Logf("pre-attack throughput %.3f Gbps, floor %.3f", before, floor)
	if before < floor {
		t.Errorf("pre-attack throughput %.3f Gbps, floor %.3f; the victim should saturate its offered load", before, floor)
	}
	return r
}

// TestFig3ShapeSmall runs the fig3-quick pack (30 ticks, the 512-mask
// attack at t=10 on 128-byte frames) and asserts the paper's shape: the
// pack's expectations hold — the mask count explodes to ~512 and the
// vanilla victim loses at least half its throughput — and before the
// attack the victim saturates its offered load.
func TestFig3ShapeSmall(t *testing.T) {
	p := loadPack(t, "fig3-quick.yaml")
	i := vanillaIndex(t, p)
	var res *scenario.Result
	checkPreAttackFloor(t, p.Variants[i], scenario.RunOptions{}, func() *scenario.VariantRun {
		var err error
		if res, err = scenario.Run(p, scenario.RunOptions{}); err != nil {
			t.Fatal(err)
		}
		return res.Runs[i]
	})
	for _, c := range res.Checks {
		if !c.Pass {
			t.Errorf("fig3-quick: %s", c)
		}
	}
}

// TestFig3FullScale runs the paper's actual Fig. 3 configuration — 8192
// masks via the three-field Calico attack, MTU frames — on the fig3
// pack's vanilla variant at a shortened timeline. Skipped with -short:
// the covert stream's own processing is expensive by design.
func TestFig3FullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full 8192-mask Fig. 3 timeline is slow")
	}
	opt := scenario.RunOptions{Duration: 40, AttackStart: 10, CostSamples: 32}
	p := loadPack(t, "fig3.yaml")
	v := p.Variants[vanillaIndex(t, p)]
	run := checkPreAttackFloor(t, v, opt, func() *scenario.VariantRun { return runVariant(t, v, opt) })
	s := run.Summary
	if s["degradation"] < 0.5 {
		t.Errorf("full-scale degradation only %.0f%% (%.3f -> %.3f Gbps)",
			s["degradation"]*100, s["mean_before"], s["mean_after"])
	}
	if s["peak_masks"] < 7000 {
		t.Errorf("peak masks = %g, want ~8192 (shared tries with the victim policy shave a few)", s["peak_masks"])
	}
}

package mitigation

import (
	"strings"
	"testing"

	"policyinject/internal/attack"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

func evaluate(t *testing.T, variants []Variant) []Outcome {
	t.Helper()
	out, err := Evaluate(attack.TwoField(), variants, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(variants) {
		t.Fatalf("outcomes = %d", len(out))
	}
	return out
}

// TestVanillaIsVulnerable: the stock configuration slows down massively.
func TestVanillaIsVulnerable(t *testing.T) {
	out := evaluate(t, []Variant{NoEMC()})
	o := out[0]
	// The victim's own /24 whitelist shares trie paths with the attack
	// values and perturbs a handful of divergence depths, so slightly
	// fewer than the pristine 512 masks appear.
	if o.Masks < 480 {
		t.Errorf("attack injected only %d masks", o.Masks)
	}
	if o.Slowdown < 5 {
		t.Errorf("slowdown = %.1fx; the attack should bite hard\n%v", o.Slowdown, o)
	}
}

// TestMaskCapContainsMaskCount: the quota holds the line on masks — but
// note the trade-off the outcome numbers expose: in reject mode the
// victim's own megaflow may be the one refused, turning every victim
// packet into an upcall. The quota bounds the damage, it does not undo it.
func TestMaskCapContainsMaskCount(t *testing.T) {
	out := evaluate(t, []Variant{NoEMC(), MaskCap(64)})
	vanilla, capped := out[0], out[1]
	if capped.Masks > 64 {
		t.Errorf("mask cap exceeded: %d", capped.Masks)
	}
	if capped.Slowdown >= vanilla.Slowdown {
		t.Errorf("cap (%.1fx) did not improve on vanilla (%.1fx)",
			capped.Slowdown, vanilla.Slowdown)
	}
}

// TestMaskCapLRUSortedRestoresVictim: the combined mitigation keeps the
// victim's hot mask resident and early; its cost returns to near-healthy.
func TestMaskCapLRUSortedRestoresVictim(t *testing.T) {
	out := evaluate(t, []Variant{NoEMC(), MaskCapLRUSorted(64)})
	vanilla, combo := out[0], out[1]
	if combo.Masks > 64 {
		t.Errorf("mask cap exceeded: %d", combo.Masks)
	}
	if combo.Slowdown > vanilla.Slowdown/4 {
		t.Errorf("cap+lru+sort = %.1fx vs vanilla %.1fx; expected a strong recovery",
			combo.Slowdown, vanilla.Slowdown)
	}
}

// TestCacheLessIsImmune: the ESWITCH-style baseline's cost is unchanged
// within measurement noise.
func TestCacheLessIsImmune(t *testing.T) {
	out := evaluate(t, []Variant{CacheLess()})
	o := out[0]
	if o.Masks != 0 {
		t.Errorf("cache-less variant reported %d masks", o.Masks)
	}
	if o.Slowdown > 3 { // generous: timer noise on busy CI boxes
		t.Errorf("cache-less slowdown = %.1fx; expected ~1x\n%v", o.Slowdown, o)
	}
}

// TestRelativeOrdering: the headline comparison — vanilla suffers far more
// than the capped and cache-less variants.
func TestRelativeOrdering(t *testing.T) {
	out := evaluate(t, []Variant{NoEMC(), MaskCap(64), CacheLess()})
	vanilla, capped, cacheless := out[0], out[1], out[2]
	if vanilla.Slowdown <= capped.Slowdown {
		t.Errorf("vanilla (%.1fx) should suffer more than mask-cap (%.1fx)",
			vanilla.Slowdown, capped.Slowdown)
	}
	if vanilla.Slowdown < 5*cacheless.Slowdown {
		t.Errorf("vanilla (%.1fx) should suffer far more than cache-less (%.1fx)",
			vanilla.Slowdown, cacheless.Slowdown)
	}
}

// TestStatefulIsNotAMitigation answers the natural objection: OpenStack
// security groups are stateful, so does conntrack blunt the attack? No —
// the stateless-compiled attack ACL mints its masks regardless, and the
// victim's (stateless) path still scans them.
func TestStatefulIsNotAMitigation(t *testing.T) {
	out := evaluate(t, []Variant{NoEMC(), Stateful()})
	vanilla, stateful := out[0], out[1]
	if stateful.Slowdown < vanilla.Slowdown/10 {
		t.Errorf("stateful (%.1fx) an order of magnitude better than vanilla (%.1fx)? model drift",
			stateful.Slowdown, vanilla.Slowdown)
	}
	if stateful.Masks < 450 {
		t.Errorf("stateful variant has only %d masks", stateful.Masks)
	}
}

func TestTableRendering(t *testing.T) {
	out := evaluate(t, []Variant{NoEMC()})
	tbl := Table(out).String()
	for _, want := range []string{"variant", "no-emc", "slowdown"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	if !strings.Contains(out[0].String(), "no-emc") {
		t.Error("Outcome.String missing name")
	}
}

func TestEvaluateRejectsBadAttack(t *testing.T) {
	if _, err := Evaluate(&attack.Attack{}, []Variant{NoEMC()}, 16); err == nil {
		t.Fatal("invalid attack accepted")
	}
}

// TestSortedTSSRescuesWarmTraffic documents what the model (honestly)
// shows about hit-count subtable ranking — the mitigation OVS adopted
// *after* this paper: traffic whose megaflows stay warm (established
// flows and recurring churn combinations alike) is largely rescued,
// because the victim-facing subtables out-rank the attacker's trickle.
func TestSortedTSSRescuesWarmTraffic(t *testing.T) {
	out := evaluate(t, []Variant{NoEMC(), SortedTSS()})
	vanilla, sorted := out[0], out[1]
	if sorted.Slowdown >= vanilla.Slowdown/4 {
		t.Errorf("sorted TSS (%.1fx) barely improved on vanilla (%.1fx)",
			sorted.Slowdown, vanilla.Slowdown)
	}
}

// TestSortedTSSMissPathStillExposed is the flip side: a cold packet that
// misses the megaflow cache scans every attacker subtable before the
// upcall, ranking or not — the residual exposure window (flow-limit
// churn, ranking epochs, novel combos).
func TestSortedTSSMissPathStillExposed(t *testing.T) {
	out, err := Evaluate(attack.TwoField(), []Variant{SortedTSS()}, 64)
	if err != nil {
		t.Fatal(err)
	}
	_ = out
	// Build the same scenario by hand to probe a guaranteed-cold key.
	v := SortedTSS().Build()
	var m flow.Match
	m.Key.Set(flow.FieldInPort, 1)
	m.Mask.SetExact(flow.FieldInPort)
	v.InstallRule(flowtable.Rule{Match: m, Priority: 0})
	atk := attack.TwoField()
	theACL, _ := atk.BuildACL()
	rules, _ := theACL.Compile()
	for _, r := range rules {
		r.Match.Key.Set(flow.FieldInPort, 66)
		r.Match.Mask.SetExact(flow.FieldInPort)
		v.InstallRule(r)
	}
	keys, _ := atk.Keys()
	for i := range keys {
		keys[i].Set(flow.FieldInPort, 66)
		v.ProcessKey(1, keys[i])
	}
	var cold flow.Key
	cold.Set(flow.FieldInPort, 1)
	cold.Set(flow.FieldEthType, flow.EthTypeIPv4)
	cold.Set(flow.FieldIPSrc, 0xdeadbeef)
	d := v.ProcessKey(2, cold)
	if d.MasksScanned < 450 {
		t.Errorf("cold miss scanned only %d masks; the miss path should pay the full scan", d.MasksScanned)
	}
}

// TestStagedPruningRestoresVictim: staged pruning leaves every attacker
// megaflow resident (full mask count) yet strips the ladder's leverage —
// the victim's per-packet scan collapses to a handful of physical
// subtable probes and the slowdown improves on vanilla by a wide margin.
func TestStagedPruningRestoresVictim(t *testing.T) {
	out := evaluate(t, []Variant{NoEMC(), StagedPruning()})
	vanilla, staged := out[0], out[1]
	if staged.Masks < 480 {
		t.Errorf("staged pruning should not suppress masks; got %d", staged.Masks)
	}
	if staged.Slowdown*2 > vanilla.Slowdown {
		t.Errorf("staged pruning (%.1fx) should improve on vanilla (%.1fx) by >= 2x",
			staged.Slowdown, vanilla.Slowdown)
	}
	if staged.AvgScan >= vanilla.AvgScan/4 {
		t.Errorf("avg scan %.1f not <= vanilla/4 (%.1f)", staged.AvgScan, vanilla.AvgScan)
	}
	if !strings.Contains(Table(out).String(), "avg_scan") {
		t.Error("table lost the avg_scan column")
	}
}

package main

import (
	"strings"
	"testing"

	"policyinject/internal/attack"
	"policyinject/internal/dataplane"
	"policyinject/internal/flowtable"
)

// smallSize keeps every workload's code path but shrinks it to run in
// well under a second: 512 covert masks, a 2048-flow mix, 40 bursts.
var smallSize = params{
	mixFlows:   2048,
	warmBursts: 64,
	covert:     attack.TwoField,
	victims:    8,
	minBursts:  40,
}

func smallRun(t *testing.T, name string, trace bool) *result {
	t.Helper()
	res, err := run(config{workload: name, seed: 7, trace: trace, setups: 1}, smallSize)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestTraceFaithful runs every workload untraced and traced: the replay
// must reproduce the switch's decisions and counters, and every verdict
// must match the reference.
func TestTraceFaithful(t *testing.T) {
	for _, w := range workloads {
		res := smallRun(t, w.name, true)
		if res.fails != 0 || res.frames == 0 {
			t.Errorf("%s: %d of %d frames failed", w.name, res.fails, res.frames)
		}
		if len(res.layers) == 0 {
			t.Errorf("%s: no ledger", w.name)
		}
	}
}

// TestSpecMatchesBenchmark: BENCHMARK.json names exactly the workloads,
// metrics and units the benchmark produces.
func TestSpecMatchesBenchmark(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	res := smallRun(t, "inject", true)
	var want, got []string
	for _, m := range spec.EndToEnd {
		want = append(want, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		want = append(want, m.Name+" "+m.Unit)
	}
	for _, m := range append(res.e2e, res.layers...) {
		got = append(got, m.name+" "+m.unit)
	}
	if strings.Join(want, "\n") != strings.Join(got, "\n") {
		t.Errorf("metrics differ:\nBENCHMARK.json:\n%s\nbenchmark:\n%s", strings.Join(want, "\n"), strings.Join(got, "\n"))
	}
}

// faulty corrupts the engine's output: it flips the verdict of frame
// flip and leaves frame skip undecided, in every burst.
type faulty struct {
	engine
	flip, skip int
}

func (f faulty) burst(now uint64, fb *dataplane.FrameBatch, out []dataplane.Decision) []dataplane.Decision {
	out = f.engine.burst(now, fb, out)
	out[f.flip].Verdict.Verdict ^= flowtable.Allow
	out[f.skip].Path = undecided
	return out
}

// TestWrongVerdictsCounted: a flipped verdict and an undecided frame
// each count as one failed frame.
func TestWrongVerdictsCounted(t *testing.T) {
	for _, name := range []string{"warm-mix", "attack8192", "inject"} {
		w, _ := workloadByName(name)
		r, err := w.build(3, smallSize)
		if err != nil {
			t.Fatal(err)
		}
		l := &lane{r: r, eng: faulty{engine: newDirect(r), flip: 3, skip: 5}, chk: newChecker(r.sw, smallSize.mixFlows)}
		drive(limit{bursts: 20}, l)
		want := failCount{mismatch: 20, undecided: 20}
		if l.st.fails != want {
			t.Errorf("%s: fails %+v, want %+v", name, l.st.fails, want)
		}
	}
}

// TestTraceRejectsDivergence: a replay that does not reproduce the
// untraced run is rejected.
func TestTraceRejectsDivergence(t *testing.T) {
	w, _ := workloadByName("attack8192")
	r, err := w.build(1, smallSize)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := w.build(2, smallSize) // another seed: other victim flows
	if err != nil {
		t.Fatal(err)
	}
	rp, err := newReplay(twin, newTracer(0))
	if err != nil {
		t.Fatal(err)
	}
	before := snap(r)
	l := &lane{r: r, eng: newDirect(r), chk: newChecker(r.sw, 0)}
	lt := &lane{r: twin, eng: rp, chk: newChecker(twin.sw, 0)}
	drive(limit{bursts: 10}, l, lt)
	if err := faithful(rp, l.st, lt.st, newUsage(l.st, before, snap(r)), twin); err == nil {
		t.Fatal("replay of a different input accepted")
	}
}

// TestSlowTierKeepsCapabilities: the self-check's wrapper keeps the
// batch and installer capabilities, so the walk does not fall back to
// scalar lookups and upcalls still install.
func TestSlowTierKeepsCapabilities(t *testing.T) {
	sw := dataplane.New("slow", dataplane.WithoutEMC(), dataplane.WithTierWrapper(slowMegaflow(0.15)))
	tier := sw.Tiers()[0]
	if _, ok := tier.(*slowTier); !ok {
		t.Fatalf("tier %T not wrapped", tier)
	}
	if _, ok := tier.(dataplane.BatchTier); !ok {
		t.Error("wrapped tier lost BatchTier")
	}
	if _, ok := tier.(dataplane.MegaflowInstaller); !ok {
		t.Error("wrapped tier lost MegaflowInstaller")
	}
	if sw.Megaflow() == nil {
		t.Error("wrapped tier hides its megaflow cache")
	}
}

// TestSeedFixesInput: the same seed yields the same frames, another seed
// other frames.
func TestSeedFixesInput(t *testing.T) {
	frames := func(seed uint64) string {
		var fb dataplane.FrameBatch
		newTrainMix(seed, 1024).fill(&fb)
		var b strings.Builder
		for _, f := range fb.Frames {
			b.Write(f)
		}
		return b.String()
	}
	if frames(5) != frames(5) {
		t.Error("same seed, different frames")
	}
	if frames(5) == frames(6) {
		t.Error("different seeds, same frames")
	}
}

package scenario_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"policyinject/internal/scenario"
)

// wallMeasured names the outputs that depend on the wall clock, so vary
// run to run: the timed victim throughput and its means, and the allowed
// count, since MeasureCost sizes its victim bursts by elapsed time. The
// result goldens leave them out.
var wallMeasured = map[string]bool{
	"victim_gbps": true,
	"mean_before": true,
	"mean_after":  true,
	"degradation": true,
	"allowed":     true,
}

// renderTimelines renders every variant's deterministic outcome: each
// timeline series tick by tick, then the summary keys in sorted order.
func renderTimelines(res *scenario.Result) string {
	var b strings.Builder
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, run := range res.Runs {
		fmt.Fprintf(&b, "variant %s\n", run.Variant)
		for _, s := range run.Timeline.All() {
			if wallMeasured[s.Name] {
				continue
			}
			fmt.Fprintf(&b, "  series %s:", s.Name)
			for i := range s.V {
				fmt.Fprintf(&b, " %s=%s", num(s.T[i]), num(s.V[i]))
			}
			b.WriteByte('\n')
		}
		keys := make([]string, 0, len(run.Summary))
		for k := range run.Summary {
			if !wallMeasured[k] {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  summary %s = %s\n", k, num(run.Summary[k]))
		}
	}
	return b.String()
}

// The timeline goldens were recorded while the hand-wired Fig. 3 and
// flow-limit drivers still existed and the packs matched them series for
// series, so they stand in for those drivers as the legacy reference:
// rewrite them with -update only for an intended change of outcome.

// TestFig3PackMatchesLegacy pins every deterministic fig3-quick series
// and summary metric, tick for tick, to the recorded legacy timeline.
func TestFig3PackMatchesLegacy(t *testing.T) { checkTimelineGolden(t, "fig3-quick.yaml") }

// TestFlowLimitPackMatchesLegacy pins every flowlimit-quick revalidator
// gauge, cache series and summary metric, both variants, to the recorded
// legacy timeline.
func TestFlowLimitPackMatchesLegacy(t *testing.T) { checkTimelineGolden(t, "flowlimit-quick.yaml") }

// checkTimelineGolden runs the pack and compares its rendered timelines
// with testdata/golden/<pack>.timeline.golden.
func checkTimelineGolden(t *testing.T, file string) {
	t.Helper()
	res, err := scenario.Run(loadEmbedded(t, file), scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := renderTimelines(res)
	golden := filepath.Join("testdata", "golden", strings.TrimSuffix(file, ".yaml")+".timeline.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%s: %v (regenerate with go test -run PackMatchesLegacy -update)", golden, err)
	}
	if got != string(want) {
		t.Errorf("%s: timeline diverges from golden file\n--- got ---\n%s--- want ---\n%s", file, got, want)
	}
}

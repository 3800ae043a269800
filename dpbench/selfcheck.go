package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"policyinject/internal/burst"
	"policyinject/internal/cache"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
)

// megaflowTier is the capability set of the stock megaflow tier, which
// a wrapper must keep so the walk neither falls back to scalar lookups
// nor loses its installer.
type megaflowTier interface {
	dataplane.BatchTier
	dataplane.RunCoalescer
	dataplane.LimitedTier
	dataplane.RevalidatableTier
	dataplane.MegaflowInstaller
	Megaflow() *cache.Megaflow
}

// slowMegaflow returns a tier wrapper that stretches every megaflow
// lookup by share of its own duration, spinning after the real lookup:
// a known slowdown confined to the megaflow layer.
func slowMegaflow(share float64) func(dataplane.Tier) dataplane.Tier {
	return func(t dataplane.Tier) dataplane.Tier {
		mt, ok := t.(megaflowTier)
		if !ok {
			return t
		}
		return &slowTier{megaflowTier: mt, share: share}
	}
}

// slowTier forwards the full megaflow capability set and slows lookups.
type slowTier struct {
	megaflowTier
	share float64
}

func (s *slowTier) stretch(t0 time.Time) {
	until := time.Duration(float64(time.Since(t0)) * (1 + s.share))
	for time.Since(t0) < until {
	}
}

func (s *slowTier) Lookup(k flow.Key, now uint64) (*cache.Entry, int, bool) {
	t0 := time.Now()
	defer s.stretch(t0)
	return s.megaflowTier.Lookup(k, now)
}

func (s *slowTier) LookupBatch(keys []flow.Key, hashes []uint64, now uint64, ents []*cache.Entry, costs []int, miss *burst.Bitmap) {
	t0 := time.Now()
	s.megaflowTier.LookupBatch(keys, hashes, now, ents, costs, miss)
	s.stretch(t0)
}

// runSelfCheck is the sensitivity self-check: attack8192 built four
// times (baseline and with every megaflow lookup stretched, each
// untraced and traced) and driven in lockstep over the same bursts, so
// that one machine's noise hits both arms alike. The stretch is twice
// the bound BENCHMARK.json gives pps, so that on a sweep-bound workload
// the expected pps drop, 1 - 1/(1+2*bound), lies well outside the bound.
// It fails unless the slowed arm's pps falls by more than the bound and
// the ledger puts the added time in cache.megaflow.* and no other layer.
func runSelfCheck(cfg config, p params) error {
	bound, err := ppsBound("BENCHMARK.json")
	if err != nil {
		return err
	}
	share := 2 * bound
	w, err := workloadByName("attack8192")
	if err != nil {
		return err
	}
	base, err := newTracedPair(w, cfg.seed, p)
	if err != nil {
		return err
	}
	sp := p
	sp.wrap = slowMegaflow(share)
	slow, err := newTracedPair(w, cfg.seed, sp)
	if err != nil {
		return err
	}
	drive(limit{seconds: cfg.seconds, minBursts: p.minBursts}, base.plain, slow.plain, base.traced, slow.traced)
	ub, err := base.usage()
	if err != nil {
		return err
	}
	us, err := slow.usage()
	if err != nil {
		return err
	}
	// pps is taken on the thread's CPU time, as the benchmark reports it;
	// the added time is compared with the spans on wall time, as the
	// ledger does.
	cpuFrame := func(u usage) float64 { return u.perFrame(float64(u.cpuNs)) }
	drop := 1 - cpuFrame(ub)/cpuFrame(us)
	added := us.perFrame(float64(us.wallNs)) - ub.perFrame(float64(ub.wallNs))
	fmt.Printf("selfcheck: attack8192 seed %d, %d bursts per arm, megaflow lookups stretched by %.0f%%\n",
		cfg.seed, ub.bursts, 100*share)
	fmt.Printf("pps: baseline %.1f, slowed %.1f, drop %.1f%% (pps bound %.0f%%)\n",
		1e9/cpuFrame(ub), 1e9/cpuFrame(us), 100*drop, 100*bound)
	fmt.Printf("added %.1f ns/frame untraced; per-layer self time added:\n", added)
	var megaflow, other float64
	var layersAdded float64
	for l := layer(1); l < nLayers; l++ {
		d := us.perFrame(float64(slow.tr.selfNs[l])) - ub.perFrame(float64(base.tr.selfNs[l]))
		layersAdded += d
		fmt.Printf("  %-26s %+12.1f ns/frame\n", layerNames[l], d)
		switch l {
		case lSweep, lReprobe, lInstall:
			megaflow += d
		default:
			other = max(other, math.Abs(d))
		}
	}
	self := added - layersAdded
	fmt.Printf("  %-26s %+12.1f ns/frame\n", "dataplane.self", self)
	other = max(other, math.Abs(self))
	outside := drop > bound
	attributed := megaflow > 0.8*added && other < 0.1*added
	fmt.Printf("cache.megaflow.* took %.1f%% of the added time, the largest other layer %.1f%%\n",
		100*megaflow/added, 100*other/added)
	fmt.Printf("outside_bound=%v attributed=%v\n", outside, attributed)
	if !outside {
		return fmt.Errorf("pps drop %.1f%% under a %.0f%% megaflow stretch is inside the %.0f%% bound", 100*drop, 100*share, 100*bound)
	}
	if !attributed {
		return fmt.Errorf("injected megaflow slowdown not attributed to cache.megaflow.*")
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json the benchmark reads back.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func ppsBound(path string) (float64, error) {
	s, err := readSpec(path)
	if err != nil {
		return 0, err
	}
	for _, m := range s.EndToEnd {
		if m.Name == "pps" {
			return m.Bound, nil
		}
	}
	return 0, fmt.Errorf("%s: no pps metric", path)
}

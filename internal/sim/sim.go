// Package sim is the cost model the experiments measure with: it times
// real bursts through a pipeline (MeasureCost), converts per-packet cost
// into the throughput one forwarding core sustains under an offered load
// (Throughput, Gbps, PPSFor), and sweeps lookup cost against the megaflow
// mask count (RunSweep).
//
// Absolute Gbps of the paper's testbed cannot be reproduced on an
// arbitrary host, so throughput is reported as min(offered, budget/cost)
// for the real cost of the real cache and classifier code. Shape — who
// wins, where the knee is, the relative collapse — is what experiments
// assert. The timelines themselves (Fig. 3, the flow-limit collapse) are
// scenario packs: see internal/scenario and scenarios/.
package sim

import (
	"time"

	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/traffic"
)

// Pipeline is the surface the simulator drives; dataplane.Switch,
// dataplane.PMDPool and baseline.Switch all satisfy it. The wire burst is
// the primary interface: the simulator hands whole frame bursts to
// ProcessFrames, as a NIC rx queue would, so measured cost includes the
// parse stage; ProcessBatch remains the key-level hook for generators
// that have no wire rendering.
type Pipeline interface {
	ProcessKey(now uint64, k flow.Key) dataplane.Decision
	ProcessBatch(now uint64, keys []flow.Key, out []dataplane.Decision) []dataplane.Decision
	ProcessFrames(now uint64, fb *dataplane.FrameBatch, out []dataplane.Decision) []dataplane.Decision
}

// MeasureCost measures the per-packet processing cost of p for the
// generator's traffic at the pipeline's current state, by timing real
// burst calls over generated bursts. When gen is a traffic.FrameSource
// the bursts are raw wire frames through ProcessFrames — end-to-end cost,
// parsing included, the regime the paper's Figure 3 studies; otherwise
// pre-extracted keys through ProcessBatch. It adapts the sample count so
// each timed region is long enough to dominate clock granularity, runs
// several independent rounds, and returns the cheapest round — the
// minimum estimator, which discards descheduling noise that a mean would
// absorb (cheap pipelines are otherwise dominated by a single preemption
// inside the window). The calls mutate cache state exactly as the
// measured traffic would — that is intentional. Burst generation happens
// outside the timed region, so the cost is the pipeline's alone.
func MeasureCost(p Pipeline, gen traffic.Generator, now uint64, minSamples int) time.Duration {
	if minSamples < 16 {
		minSamples = 16
	}
	fs, frameDriven := gen.(traffic.FrameSource)
	keys := make([]flow.Key, minSamples)
	var fb dataplane.FrameBatch
	var out []dataplane.Decision
	best := time.Duration(0)
	for round := 0; round < 3; round++ {
		const minElapsed = 100 * time.Microsecond
		samples := 0
		var elapsed time.Duration
		for elapsed < minElapsed || samples < minSamples {
			var start time.Time
			if frameDriven {
				fb.Reset()
				for i := 0; i < minSamples; i++ {
					fb.Append(fs.NextFrame())
				}
				start = time.Now()
				out = p.ProcessFrames(now, &fb, out)
			} else {
				for i := range keys {
					keys[i] = gen.Next()
				}
				start = time.Now()
				out = p.ProcessBatch(now, keys, out)
			}
			elapsed += time.Since(start)
			samples += minSamples
			if samples > 1<<20 {
				break // pathological clock; avoid spinning forever
			}
		}
		cost := elapsed / time.Duration(samples)
		if best == 0 || cost < best {
			best = cost
		}
	}
	return best
}

// Throughput computes achievable packets-per-second for a per-packet cost
// on one forwarding core, capped by the offered load.
func Throughput(cost time.Duration, offeredPPS float64) float64 {
	if cost <= 0 {
		return offeredPPS
	}
	capacity := float64(time.Second) / float64(cost)
	if capacity > offeredPPS {
		return offeredPPS
	}
	return capacity
}

// Gbps converts packets per second at a frame size to link throughput in
// gigabits per second (including the 20-byte Ethernet overhead of
// preamble+IFG, so 1514-byte frames max out just under line rate, as iperf
// reports do).
func Gbps(pps float64, frameLen int) float64 {
	return pps * float64(frameLen+20) * 8 / 1e9
}

// PPSFor returns the packet rate that fills the given bandwidth at a frame
// size — the offered load for a "1 Gbps iperf stream".
func PPSFor(gbps float64, frameLen int) float64 {
	return gbps * 1e9 / (float64(frameLen+20) * 8)
}

package main

import (
	"fmt"
	"io"
	"sort"
)

// usage is what the untraced run did, from the load loop's tallies and the
// program's own counter snapshots around the measured loop.
type usage struct {
	frames, bursts, rounds int
	copies                 int
	cpuNs, wallNs          int64
	before, after          snapshot
	peakMasks              int
	fails                  failCount

	// From runtime.MemStats deltas over the untraced run.
	allocsPerPkt, bytesPerPkt float64
}

func newUsage(st runStats, before, after snapshot) usage {
	return usage{
		frames: st.frames, bursts: st.bursts, rounds: st.rounds, copies: st.copies, cpuNs: st.cpuNs, wallNs: st.wallNs,
		before: before, after: after, peakMasks: st.peakMasks, fails: st.fails,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (u usage) perFrame(v float64) float64 { return ratio(v, float64(u.frames)) }

func (u usage) upcalls() float64 { return float64(u.after.ctr.Upcalls - u.before.ctr.Upcalls) }

// tierHits returns the named tier's hits during the run.
func (u usage) tierHits(name string) float64 {
	return float64(u.after.ctr.HitsFor(name) - u.before.ctr.HitsFor(name))
}

// hitRatio is the named tier's hits over its probes during the run.
func (u usage) hitRatio(name string) float64 {
	for i, t := range u.after.tiers {
		if t.Name == name {
			b := u.before.tiers[i]
			hits := float64(t.Hits - b.Hits)
			return ratio(hits, hits+float64(t.Misses-b.Misses))
		}
	}
	return 0
}

// visits is the megaflow subtables physically probed during the run:
// scan positions less those billed to coalesced runs without a probe
// (with staged pruning the scan count is already physical).
func (u usage) visits() float64 {
	return float64((u.after.mf.scanned - u.after.mf.runBilled) - (u.before.mf.scanned - u.before.mf.runBilled))
}

// report prints the workload property line: what share of the traffic
// has the properties later optimisations key on.
func (u usage) report(w io.Writer, name string, seed uint64) {
	fmt.Fprintf(w, "property: workload=%s seed=%d frames=%d bursts=%d rounds=%d run_share=%.4f upcall_share=%.4f",
		name, seed, u.frames, u.bursts, u.rounds, u.perFrame(float64(u.copies)), u.perFrame(u.upcalls()))
	fmt.Fprint(w, " tier_hits")
	for _, th := range u.after.ctr.TierHits {
		fmt.Fprintf(w, " %s=%.4f", th.Tier, u.perFrame(u.tierHits(th.Tier)))
	}
	fmt.Fprintf(w, " masks=%d allocs_per_pkt=%.3f fail_share=%g\n",
		u.peakMasks, u.allocsPerPkt, u.perFrame(float64(u.fails.total())))
}

// ledger computes the per-layer metrics from the traced replay's self
// times and the untraced run's counters.
func ledger(u usage, rp *replay, tr *tracer, tst runStats) []named {
	self := func(l layer) float64 { return float64(tr.selfNs[l]) }
	var layerSum float64
	for l := layer(0); l < nLayers; l++ {
		if l != lBurst {
			layerSum += self(l)
		}
	}
	up := u.upcalls()
	probes := func(name string) float64 {
		for i, t := range rp.tiers {
			if t.Name() == name {
				return float64(rp.probes[i])
			}
		}
		return 0
	}
	flows := float64(u.after.rev.TotalFlows - u.before.rev.TotalFlows)
	evicted := float64((u.after.rev.TotalIdleEvicted + u.after.rev.TotalLimitEvicted + u.after.rev.TotalPolicyFlushed) -
		(u.before.rev.TotalIdleEvicted + u.before.rev.TotalLimitEvicted + u.before.rev.TotalPolicyFlushed))
	rounds := float64(u.rounds)
	return []named{
		{"pkt.extract_ns", u.perFrame(self(lExtract)), "ns/frame"},
		{"flow.hash_ns", u.perFrame(self(lHash)), "ns/frame"},
		{"dataplane.self_ns", u.perFrame(float64(u.wallNs) - layerSum), "ns/frame"},
		{"dataplane.run_share", u.perFrame(float64(u.copies)), "ratio"},
		{"dataplane.upcall_share", u.perFrame(up), "ratio"},
		{"dataplane.emc_hit_share", u.perFrame(u.tierHits("emc")), "ratio"},
		{"dataplane.smc_hit_share", u.perFrame(u.tierHits("smc")), "ratio"},
		{"dataplane.megaflow_hit_share", u.perFrame(u.tierHits("megaflow")), "ratio"},
		{"dataplane.allocs_per_pkt", u.allocsPerPkt, "count"},
		{"dataplane.bytes_per_pkt", u.bytesPerPkt, "B/frame"},
		{"cache.emc.lookup_ns", ratio(self(lEMC), probes("emc")), "ns/probe"},
		{"cache.emc.hit_ratio", u.hitRatio("emc"), "ratio"},
		{"cache.smc.lookup_ns", ratio(self(lSMC), probes("smc")), "ns/probe"},
		{"cache.smc.hit_ratio", u.hitRatio("smc"), "ratio"},
		{"cache.megaflow.sweep_ns", u.perFrame(self(lSweep)), "ns/frame"},
		{"cache.megaflow.visits_per_pkt", u.perFrame(u.visits()), "count"},
		{"cache.megaflow.ns_per_visit", ratio(self(lSweep)+self(lReprobe), u.visits()), "ns"},
		{"cache.megaflow.masks", float64(u.peakMasks), "count"},
		{"cache.megaflow.reprobe_ns", ratio(self(lReprobe), up), "ns/upcall"},
		{"cache.megaflow.install_ns", ratio(self(lInstall), up), "ns/upcall"},
		{"classifier.lookup_ns", ratio(self(lClassify), up), "ns/upcall"},
		{"cache.promote_ns", u.perFrame(self(lPromote)), "ns/frame"},
		{"cache.account_run_ns", u.perFrame(self(lAccount)), "ns/frame"},
		{"revalidator.round_ms", ratio(self(lRound), rounds) / 1e6, "ms"},
		{"revalidator.flows_per_round", ratio(flows, rounds), "count"},
		{"revalidator.evicted_per_round", ratio(evicted, rounds), "count"},
		{"trace.overhead_ns", u.perFrame(float64(tst.wallNs - u.wallNs)), "ns/frame"},
		{"verify.fail_share", u.perFrame(float64(u.fails.total())), "ratio"},
	}
}

// printLedger prints each layer's self time per frame and its share of
// the untraced frame time, largest first.
func printLedger(w io.Writer, u usage, tr *tracer, tst runStats) {
	frameNs := u.perFrame(float64(u.wallNs))
	type row struct {
		name  string
		ns    float64
		calls int64
	}
	var rows []row
	var layerSum float64
	for l := layer(0); l < nLayers; l++ {
		if l == lBurst || tr.calls[l] == 0 {
			continue
		}
		ns := u.perFrame(float64(tr.selfNs[l]))
		layerSum += ns
		rows = append(rows, row{layerNames[l], ns, tr.calls[l]})
	}
	rows = append(rows, row{"dataplane.self", frameNs - layerSum, 0})
	sort.Slice(rows, func(i, j int) bool { return rows[i].ns > rows[j].ns })
	fmt.Fprintf(w, "ledger: untraced %.1f ns/frame, traced %.1f ns/frame (tracing overhead %.1f ns/frame, replay glue %.1f ns/frame, clock %d ns/span)\n",
		frameNs, u.perFrame(float64(tst.wallNs)), u.perFrame(float64(tst.wallNs-u.wallNs)),
		u.perFrame(float64(tr.selfNs[lBurst])), tr.calib)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %12.1f ns/frame %6.2f%% %10d calls\n", r.name, r.ns, 100*ratio(r.ns, frameNs), r.calls)
	}
}

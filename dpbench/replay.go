package main

import (
	"errors"
	"fmt"
	"math/bits"

	"policyinject/internal/burst"
	"policyinject/internal/cache"
	"policyinject/internal/classifier"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/pkt"
	"policyinject/internal/revalidator"
)

// replay is the traced twin of the switch's frame path. It walks a
// burst exactly as dataplane's processBatch does, but from outside,
// through each layer's public entry point, so every call can be
// wrapped in a span: pkt.ExtractBatch, flow.HashKeys, each tier's
// LookupBatch over the miss bitmap, promotion installs, the post-upcall
// re-probe, Classifier.Lookup, InsertMegaflow, AccountRun for run copies,
// and revalidator.Tick.
//
// It supports what the benchmark's hierarchies use: unsharded batch
// tiers, no upcall guard, no conntrack, run coalescing on. Anything else sets err.
type replay struct {
	tiers      []dataplane.Tier
	batch      []dataplane.BatchTier // tiers, as batch tiers
	layers     []layer               // each tier's lookup layer
	hashedInst []dataplane.HashedInstaller
	installer  dataplane.MegaflowInstaller
	promoteTo  int
	needHashes bool
	cls        *classifier.Classifier
	rev        *revalidator.Revalidator
	tr         *tracer
	err        error

	keys   []flow.Key
	errs   []error
	hashes []uint64
	ents   []*cache.Entry
	costs  []int
	runs   []int
	hits   []int
	miss   burst.Bitmap
	prev   burst.Bitmap

	// Counts of the replayed walk, compared with the switch's own
	// counters to prove the replay faithful.
	tierHits []uint64
	probes   []uint64 // keys offered to each tier
	upcalls  uint64
	installs uint64
	bad      uint64
}

var errUnsupported = errors.New("replay: hierarchy not supported")

func newReplay(r *rig, tr *tracer) (*replay, error) {
	tiers := r.sw.Tiers()
	rp := &replay{
		tiers:      tiers,
		batch:      make([]dataplane.BatchTier, len(tiers)),
		layers:     make([]layer, len(tiers)),
		hashedInst: make([]dataplane.HashedInstaller, len(tiers)),
		cls:        r.sw.Classifier(),
		rev:        r.rev,
		tr:         tr,
		tierHits:   make([]uint64, len(tiers)),
		probes:     make([]uint64, len(tiers)),
	}
	for i, t := range tiers {
		switch t.Name() {
		case "emc":
			rp.layers[i] = lEMC
		case "smc":
			rp.layers[i] = lSMC
		case "megaflow":
			rp.layers[i] = lSweep
		default:
			return nil, fmt.Errorf("%w: tier %q", errUnsupported, t.Name())
		}
		if _, ok := t.(dataplane.ConcurrentTier); ok {
			return nil, fmt.Errorf("%w: sharded tier %q", errUnsupported, t.Name())
		}
		bt, ok := t.(dataplane.BatchTier)
		if !ok {
			return nil, fmt.Errorf("%w: tier %q has no LookupBatch", errUnsupported, t.Name())
		}
		rp.batch[i] = bt
		if _, ok := t.(dataplane.HashUser); ok {
			rp.needHashes = true
		}
		if hi, ok := t.(dataplane.HashedInstaller); ok {
			rp.hashedInst[i] = hi
			rp.needHashes = true
		}
	}
	for i := len(tiers) - 1; i >= 0; i-- {
		if inst, ok := tiers[i].(dataplane.MegaflowInstaller); ok {
			rp.installer, rp.promoteTo = inst, i
			break
		}
	}
	return rp, nil
}

func (rp *replay) fail(err error) {
	if rp.err == nil {
		rp.err = err
	}
}

func (rp *replay) parseErrors() uint64 { return rp.bad }

func (rp *replay) tick(now uint64) {
	sp := rp.tr.begin(lRound)
	rp.rev.Tick(now)
	rp.tr.end(sp)
}

// burst is ProcessFrames: extract, the burst hash pass, then the walk.
func (rp *replay) burst(now uint64, fb *dataplane.FrameBatch, out []dataplane.Decision) []dataplane.Decision {
	n := fb.Len()
	out = dataplane.GrowDecisions(out, n)
	if n < 2 {
		rp.fail(fmt.Errorf("%w: burst of %d frames", errUnsupported, n))
		return out
	}
	root := rp.tr.begin(lBurst)
	if cap(rp.keys) < n {
		rp.keys = make([]flow.Key, n)
		rp.errs = make([]error, n)
		rp.ents = make([]*cache.Entry, n)
		rp.costs = make([]int, n)
	}
	keys, errs := rp.keys[:n], rp.errs[:n]
	sp := rp.tr.begin(lExtract)
	bad := pkt.ExtractBatch(fb.Frames, fb.InPorts, keys, errs)
	rp.tr.end(sp)
	if bad > 0 {
		rp.bad += uint64(bad)
		rp.fail(fmt.Errorf("%w: malformed frames", errUnsupported))
	}
	var hashes []uint64
	if rp.needHashes {
		sp := rp.tr.begin(lHash)
		rp.hashes = flow.HashKeys(keys, rp.hashes)
		rp.tr.end(sp)
		hashes = rp.hashes
	}
	rp.walk(now, keys, hashes, out)
	rp.tr.end(root)
	return out
}

// walk is processBatch: same-key run detection, the tier passes over
// the run heads, the upcall tail, then the run copies.
func (rp *replay) walk(now uint64, keys []flow.Key, hashes []uint64, out []dataplane.Decision) {
	n := len(keys)
	rp.runs = append(rp.runs[:0], 0)
	for i := 1; i < n; i++ {
		if keys[i] != keys[i-1] {
			rp.runs = append(rp.runs, i)
		}
	}
	ents, costs := rp.ents[:n], rp.costs[:n]
	rp.miss.Reset(n)
	for _, r := range rp.runs {
		rp.miss.Set(r)
		ents[r] = nil
		costs[r] = 0
	}
	for ti, t := range rp.batch {
		if rp.miss.Empty() {
			break
		}
		rp.prev.CopyFrom(&rp.miss)
		rp.probes[ti] += uint64(rp.miss.Count())
		sp := rp.tr.begin(rp.layers[ti])
		t.LookupBatch(keys, hashes, now, ents, costs, &rp.miss)
		rp.tr.end(sp)
		rp.hits = rp.prev.AndNot(&rp.miss, rp.hits[:0])
		for _, i := range rp.hits {
			rp.tierHits[ti]++
			rp.promote(keys[i], hashAt(hashes, i), hashes != nil, ents[i], ti)
			out[i] = dataplane.Decision{Verdict: ents[i].Verdict, Path: t.Path(), MasksScanned: costs[i]}
		}
	}
	if !rp.miss.Empty() {
		installs := 0
		forEach(&rp.miss, func(i int) {
			out[i] = rp.upcallOne(now, keys[i], hashAt(hashes, i), hashes != nil, costs[i], &installs)
		})
	}
	for _, r := range rp.runs {
		if out[r].Verdict.Recirc {
			rp.fail(fmt.Errorf("%w: conntrack recirculation", errUnsupported))
		}
	}
	for ri, start := range rp.runs {
		end := n
		if ri+1 < len(rp.runs) {
			end = rp.runs[ri+1]
		}
		if end-start > 1 {
			rp.settleRun(now, keys[start], out, start+1, end)
		}
	}
}

// forEach calls fn for every set index of b, in ascending order.
func forEach(b *burst.Bitmap, fn func(int)) {
	for wi, w := range b.Words() {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

func hashAt(hashes []uint64, i int) uint64 {
	if hashes == nil {
		return 0
	}
	return hashes[i]
}

// promote installs ent into tiers [0, upto), preferring the hashed
// install when the burst's hashes are resident.
func (rp *replay) promote(k flow.Key, h uint64, hasHash bool, ent *cache.Entry, upto int) {
	if upto == 0 {
		return
	}
	sp := rp.tr.begin(lPromote)
	for i, upper := range rp.tiers[:upto] {
		if hasHash && rp.hashedInst[i] != nil {
			rp.hashedInst[i].InstallHashed(k, h, ent)
		} else {
			upper.Install(k, ent)
		}
	}
	rp.tr.end(sp)
}

// upcallOne settles one walk miss: once this burst installed a megaflow,
// re-probe the authoritative tier first, then fall to the slow path.
func (rp *replay) upcallOne(now uint64, k flow.Key, h uint64, hasHash bool, sweepCost int, installs *int) dataplane.Decision {
	if *installs > 0 && rp.installer != nil {
		sp := rp.tr.begin(lReprobe)
		ent, cost, ok := rp.installer.Lookup(k, now)
		rp.tr.end(sp)
		if ok {
			rp.tierHits[rp.promoteTo]++
			rp.promote(k, h, hasHash, ent, rp.promoteTo)
			return dataplane.Decision{Verdict: ent.Verdict, Path: rp.installer.Path(), MasksScanned: cost}
		}
		sweepCost = cost
	}
	d, installed := rp.upcall(now, k, h, hasHash, sweepCost)
	if installed {
		*installs++
	}
	return d
}

// upcall classifies k on the slow path and installs the synthesised
// megaflow into the authoritative tier, promoting it above.
func (rp *replay) upcall(now uint64, k flow.Key, h uint64, hasHash bool, scanned int) (dataplane.Decision, bool) {
	rp.upcalls++
	sp := rp.tr.begin(lClassify)
	res := rp.cls.Lookup(k)
	rp.tr.end(sp)
	v := cache.Verdict{Verdict: flowtable.Deny}
	if res.Rule != nil {
		v = res.Rule.Action
	}
	installed := false
	if rp.installer != nil {
		sp := rp.tr.begin(lInstall)
		ent, err := rp.installer.InsertMegaflow(res.Megaflow, v, now)
		rp.tr.end(sp)
		if err == nil {
			rp.installs++
			rp.promote(k, h, hasHash, ent, rp.promoteTo)
			installed = true
		}
	}
	return dataplane.Decision{Verdict: v, Path: dataplane.PathSlow, MasksScanned: scanned}, installed
}

// settleRun is processRun: the run's second copy takes a scalar walk;
// when it lands in tier 0, the remaining copies coalesce into one
// AccountRun, otherwise each copy walks on its own.
func (rp *replay) settleRun(now uint64, k flow.Key, out []dataplane.Decision, from, to int) {
	d, tierIdx, ent := rp.scalarWalk(now, k)
	out[from] = d
	rest := to - from - 1
	if rest == 0 {
		return
	}
	if tierIdx == 0 {
		if rc, ok := rp.tiers[0].(dataplane.RunCoalescer); ok {
			sp := rp.tr.begin(lAccount)
			ok := rc.AccountRun(ent, rest, d.MasksScanned, now)
			rp.tr.end(sp)
			if ok {
				rp.tierHits[0] += uint64(rest)
				for i := from + 1; i < to; i++ {
					out[i] = d
				}
				return
			}
		}
	}
	for i := from + 1; i < to; i++ {
		out[i], _, _ = rp.scalarWalk(now, k)
	}
}

// scalarWalk is the per-key tier walk (classifyTracked): a hit on tier i
// is promoted into tiers [0, i) with plain installs. It reports the
// answering tier (-1 for the slow path) and its entry.
func (rp *replay) scalarWalk(now uint64, k flow.Key) (dataplane.Decision, int, *cache.Entry) {
	scanned := 0
	for i, t := range rp.tiers {
		rp.probes[i]++
		sp := rp.tr.begin(rp.layers[i])
		ent, cost, ok := t.Lookup(k, now)
		rp.tr.end(sp)
		scanned += cost
		if !ok {
			continue
		}
		rp.tierHits[i]++
		if i > 0 {
			sp := rp.tr.begin(lPromote)
			for _, upper := range rp.tiers[:i] {
				upper.Install(k, ent)
			}
			rp.tr.end(sp)
		}
		return dataplane.Decision{Verdict: ent.Verdict, Path: t.Path(), MasksScanned: scanned}, i, ent
	}
	d, _ := rp.upcall(now, k, 0, false, scanned)
	if d.Verdict.Recirc {
		rp.fail(fmt.Errorf("%w: conntrack recirculation", errUnsupported))
	}
	return d, -1, nil
}

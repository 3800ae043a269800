package cache

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"

	"policyinject/internal/burst"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

// Verdict is the cached outcome of a megaflow or microflow: the policy
// action the slow path decided.
type Verdict = flowtable.Action

// DefaultFlowLimit matches the OVS datapath default flow limit.
const DefaultFlowLimit = 200000

// ErrFlowLimit is returned by Insert when the entry limit is reached.
var ErrFlowLimit = errors.New("cache: megaflow flow limit reached")

// ErrMaskLimit is returned by Insert when a new mask would exceed the
// configured mask cap (a mitigation, not stock OVS behaviour).
var ErrMaskLimit = errors.New("cache: megaflow mask limit reached")

// MegaflowConfig tunes the megaflow cache.
type MegaflowConfig struct {
	// FlowLimit caps the number of cached entries; 0 means
	// DefaultFlowLimit, negative means unlimited.
	FlowLimit int
	// MaxMasks, when positive, caps the number of distinct masks — the
	// "mask quota" mitigation evaluated in the mitigation benches. Stock
	// OVS has no such cap. By default inserts needing a new mask beyond
	// the cap are rejected with ErrMaskLimit; with MaskEvictLRU the
	// least-recently-hit subtable is evicted instead.
	MaxMasks int
	// MaskEvictLRU selects evict-coldest-subtable behaviour at the mask
	// cap instead of rejecting new masks.
	MaskEvictLRU bool
	// SortByHits, when true, periodically reorders the subtable scan by
	// descending hit count ("sorted TSS"), OVS's pragmatic optimisation.
	// It helps skewed benign traffic and does nothing against the attack,
	// which is exactly the point the mitigation benches make.
	SortByHits bool
	// SortEvery is the number of lookups between reorderings when
	// SortByHits is set; 0 means 4096.
	SortEvery int
	// StagedPruning enables staged subtable lookups with signature and
	// L4-ports pruning plus EWMA hit-rate scan ranking — the OVS
	// countermeasure pair (classifier staged indices + ports trie) that
	// lets most subtables be rejected without a full hash probe. Lookup
	// results (hits, verdicts) are identical to the flat scan; the
	// reported scan cost becomes *physical* — subtables actually hashed —
	// instead of the flat scan position, and the SubtableVisits /
	// SubtablePrunes / StageBails counters open up. Staged pruning
	// assumes megaflows are disjoint (which slow-path synthesis
	// guarantees), since ranking reorders the scan. Overrides SortByHits.
	StagedPruning bool
	// RankEvery is the number of lookups between EWMA re-rankings of the
	// scan order when StagedPruning is set; 0 means 4096. The batched
	// sweep re-ranks only at burst boundaries.
	RankEvery int
}

// rankAlpha is the EWMA smoothing factor of the staged-pruning scan
// ranking: ewma' = alpha*hitsInWindow + (1-alpha)*ewma.
const rankAlpha = 0.25

// Entry is one cached megaflow. Hits and LastHit are its activity
// accounting, credited through credit and read through lastHit — always
// atomically, because the per-PMD EMC/SMC of a shared pool and the shard
// sweeps of the one megaflow reach the same entry under different locks
// (or none). Match and Verdict never change after the entry is minted.
type Entry struct {
	Match   flow.Match
	Verdict Verdict
	Hits    uint64
	Added   uint64 // logical insert time
	LastHit uint64 // logical last-hit time

	// dead is set on eviction so EMC/SMC references invalidate lazily.
	// Atomic because the evicting shard and a reference tier's reader
	// hold different locks.
	dead atomic.Bool
	// shard is the index of the ShardedMegaflow shard that minted the
	// entry (0 outside a sharded cache), so a coalesced run bills it.
	shard uint8
}

// Dead reports whether the entry has been evicted from the megaflow cache
// (EMC references to it are stale).
func (e *Entry) Dead() bool { return e.dead.Load() }

// credit bills n hits of the entry at logical time now. The clock store
// is skipped when it already reads now: a warm entry takes many hits per
// logical tick, and the load is far cheaper than the locked store.
func (e *Entry) credit(n, now uint64) {
	atomic.AddUint64(&e.Hits, n)
	if atomic.LoadUint64(&e.LastHit) != now {
		atomic.StoreUint64(&e.LastHit, now)
	}
}

// lastHit reads the entry's idle clock.
func (e *Entry) lastHit() uint64 { return atomic.LoadUint64(&e.LastHit) }

type mfSubtable struct {
	mask    flow.Mask
	entries map[flow.Key]*Entry
	hits    uint64       // for sorted TSS (atomic: credited under a shard read lock)
	lastHit uint64       // for LRU mask eviction (atomic, as hits)
	staged  *stagedState // staged-lookup/pruning state; nil unless StagedPruning
}

// credit bills n hits of the subtable at logical time now.
func (st *mfSubtable) credit(n, now uint64) {
	atomic.AddUint64(&st.hits, n)
	if atomic.LoadUint64(&st.lastHit) != now {
		atomic.StoreUint64(&st.lastHit, now)
	}
}

// Megaflow is the TSS-based megaflow cache. Its flat Lookup, LookupBatch
// and AccountRun are safe for any number of concurrent callers as long as
// nothing mutates the cache meanwhile — ShardedMegaflow runs them under a
// shard read lock. Everything else (inserts, maintenance, staged and
// sorted lookups) needs exclusive access.
type Megaflow struct {
	cfg       MegaflowConfig
	limit     int
	hooks     MaskHooks
	subtables []*mfSubtable // scan order
	byMask    map[flow.Mask]*mfSubtable
	nEntries  int

	sinceSort int
	lastRank  uint64 // Lookups value at the last EWMA re-ranking
	shard     uint8  // stamped on minted entries (Entry.shard)

	batchCost []int // per-key scan-cost scratch of the staged batch sweep

	// Stats. The flat lookups add to Lookups, Hits, Misses and
	// MasksScanned atomically; exclusive-access paths add plainly.
	Lookups, Hits, Misses uint64
	// MasksScanned accumulates the subtables visited across lookups; the
	// average per lookup is the paper's cost metric. With StagedPruning
	// it counts *physical* visits (stage-hash or full probes), so the
	// pruning win shows up directly.
	MasksScanned uint64

	// RunBilledScans is the portion of MasksScanned billed by AccountRun
	// for coalesced same-flow runs — logical scans with no physical
	// probe behind them. MasksScanned - RunBilledScans is the physical
	// probe count of a flat scan (the staged SubtableVisits equivalent).
	RunBilledScans uint64

	// Staged-pruning stats (zero unless StagedPruning is enabled):
	// SubtableVisits counts subtables actually costed (a stage hash or a
	// full probe ran); SubtablePrunes counts per-key visits avoided by
	// the signature/ports prefilters (burst-level skips bill one prune
	// per remaining key, so Lookup and LookupBatch count identically);
	// StageBails is the subset of visits rejected at a stage-hash index
	// before the full probe; BurstSweeps counts LookupBatch sweeps (a
	// Lookup is a one-key sweep and does not count).
	SubtableVisits, SubtablePrunes, StageBails, BurstSweeps uint64
}

// NewMegaflow builds a megaflow cache per cfg.
func NewMegaflow(cfg MegaflowConfig) *Megaflow {
	limit := cfg.FlowLimit
	if limit == 0 {
		limit = DefaultFlowLimit
	}
	if cfg.SortEvery == 0 {
		cfg.SortEvery = 4096
	}
	if cfg.RankEvery == 0 {
		cfg.RankEvery = 4096
	}
	if cfg.StagedPruning {
		// Staged pruning owns the scan order (EWMA ranking); hit-count
		// resorting would fight it.
		cfg.SortByHits = false
	}
	return &Megaflow{
		cfg:    cfg,
		limit:  limit,
		byMask: make(map[flow.Mask]*mfSubtable),
	}
}

// publish adds one sweep's lookup accounting to the counters.
func (m *Megaflow) publish(hits, misses, scanned uint64) {
	atomic.AddUint64(&m.Lookups, hits+misses)
	if hits > 0 {
		atomic.AddUint64(&m.Hits, hits)
	}
	if misses > 0 {
		atomic.AddUint64(&m.Misses, misses)
	}
	atomic.AddUint64(&m.MasksScanned, scanned)
}

// Len returns the number of cached entries.
func (m *Megaflow) Len() int { return m.nEntries }

// NumMasks returns the number of distinct masks (subtables) — the paper's
// headline quantity.
func (m *Megaflow) NumMasks() int { return len(m.subtables) }

// Lookup resolves one key: the LookupBatch sweep run over a one-key
// burst, so the per-key probe (the scalar walk, the post-upcall
// re-probe) and the burst walk share one routine per mode. The returned
// scan count is the number of subtables visited, the direct cost measure
// of TSS. Unlike LookupBatch it does not count a BurstSweeps sweep.
func (m *Megaflow) Lookup(k flow.Key, now uint64) (*Entry, int, bool) {
	keys := [1]flow.Key{k}
	var ents [1]*Entry
	var costs [1]int
	var w [1]uint64
	miss := burst.One(&w)
	m.sweep(keys[:], now, ents[:], costs[:], &miss)
	m.maybeResort()
	return ents[0], costs[0], ents[0] != nil
}

// LookupBatch is the burst-vectorized lookup: the loop is inverted so each
// subtable is visited once per *burst* — one mask.Apply plus one hash probe
// per still-unresolved key, bitmap-masked — instead of the full subtable
// list being re-walked per packet (the dpcls_lookup structure of the OVS
// userspace datapath). Per subtable the mask and hash table stay hot in
// cache across the whole burst, which is where the win over the scalar
// walk comes from once the attacker has exploded the mask count.
//
// For every key index set in miss: a hit writes ents[i], adds the scan
// depth to costs[i] and clears the bit; a miss adds the full scan length
// to costs[i] and keeps the bit. Counter and per-entry effects equal a
// Lookup sequence over the same keys; the counters are summed in locals
// and published once per sweep. With SortByHits enabled each key runs its
// own one-key sweep, because re-sort boundaries are clocked per lookup and
// the inverted loop would shift them mid-burst.
//
//lint:hotpath
func (m *Megaflow) LookupBatch(keys []flow.Key, now uint64, ents []*Entry, costs []int, miss *burst.Bitmap) {
	if m.cfg.SortByHits {
		words := miss.Words()
		for wi := range words {
			w := words[wi]
			for w != 0 {
				i := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				ent, cost, ok := m.Lookup(keys[i], now)
				costs[i] += cost
				if ok {
					ents[i] = ent
					miss.Clear(i)
				}
			}
		}
		return
	}
	if m.cfg.StagedPruning {
		m.BurstSweeps++
	}
	m.sweep(keys, now, ents, costs, miss)
}

// sweep is the one subtable sweep of the cache's mode, over every key
// index set in miss: the staged sweep with pruning, or the flat one.
func (m *Megaflow) sweep(keys []flow.Key, now uint64, ents []*Entry, costs []int, miss *burst.Bitmap) {
	if m.cfg.StagedPruning {
		m.sweepStaged(keys, now, ents, costs, miss)
		return
	}
	var hits, scanned uint64
	nSub := len(m.subtables)
	for si, st := range m.subtables {
		if miss.Empty() {
			break
		}
		pos := si + 1
		mask := st.mask
		tbl := st.entries
		var stHits uint64
		words := miss.Words()
		for wi := range words {
			w := words[wi]
			for w != 0 {
				i := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				ent, ok := tbl[mask.Apply(keys[i])]
				if !ok {
					continue
				}
				ent.credit(1, now)
				stHits++
				scanned += uint64(pos)
				ents[i] = ent
				costs[i] += pos
				miss.Clear(i)
			}
		}
		if stHits > 0 {
			st.credit(stHits, now)
			hits += stHits
		}
	}
	// Survivors paid the full sweep: bill them as full-scan misses.
	left := uint64(miss.Count())
	if left > 0 {
		scanned += left * uint64(nSub)
		words := miss.Words()
		for wi := range words {
			w := words[wi]
			for w != 0 {
				i := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				costs[i] += nSub
			}
		}
	}
	m.publish(hits, left, scanned)
}

// AccountRun bills n additional lookups that hit ent at scan depth cost
// without re-probing — the same-flow run coalescing fast path, equivalent
// to n Lookup calls for a key resident at that depth. Returns false when
// hit-count re-sorting is enabled: resorts are clocked per lookup, so
// coalesced runs would shift the re-sort boundary and the caller must fall
// back to real lookups. The counters are published atomically, as the
// flat sweep's are.
func (m *Megaflow) AccountRun(ent *Entry, n int, cost int, now uint64) bool {
	if m.cfg.SortByHits {
		return false
	}
	nn := uint64(n)
	scans := nn * uint64(cost)
	m.publish(nn, 0, scans)
	atomic.AddUint64(&m.RunBilledScans, scans)
	ent.credit(nn, now)
	if st := m.byMask[ent.Match.Mask]; st != nil {
		st.credit(nn, now)
		if st.staged != nil {
			st.staged.sinceRank += nn
		}
	}
	return true
}

func (m *Megaflow) maybeResort() {
	if !m.cfg.SortByHits {
		return
	}
	m.sinceSort++
	if m.sinceSort < m.cfg.SortEvery {
		return
	}
	m.sinceSort = 0
	//lint:allow hotpathalloc re-sort is amortized over SortEvery lookups
	sort.SliceStable(m.subtables, func(i, j int) bool {
		return m.subtables[i].hits > m.subtables[j].hits
	})
	for _, st := range m.subtables {
		st.hits = 0 // decay so ordering tracks current traffic
	}
}

// Insert installs a megaflow produced by the slow path. The match is
// normalised. Inserting an entry whose masked key already exists replaces
// the stale entry (revalidation after a policy change does this).
func (m *Megaflow) Insert(match flow.Match, v Verdict, now uint64) (*Entry, error) {
	match.Normalize()
	st := m.byMask[match.Mask]
	if st == nil {
		// The flow limit gates *before* a new subtable is minted: a mask
		// with no subtable cannot hold the entry either, and creating one
		// for a rejected insert would leak an empty subtable into the scan
		// order — the attacker would keep inflating the mask count even
		// with every flow refused, which matters once the revalidator cuts
		// the limit below the covert stream's flow count.
		if m.limit > 0 && m.nEntries >= m.limit {
			return nil, ErrFlowLimit
		}
		if m.cfg.MaxMasks > 0 && len(m.subtables) >= m.cfg.MaxMasks {
			if !m.cfg.MaskEvictLRU {
				return nil, ErrMaskLimit
			}
			m.evictColdestSubtable()
		}
		// Mask admission (per-tenant quotas) gates last, after the
		// structural limits, and rejects without minting for the same
		// reason the flow limit does: a refused tenant must not inflate
		// the scan order.
		if m.hooks.Admit != nil {
			if err := m.hooks.Admit(match); err != nil {
				return nil, err
			}
		}
		st = &mfSubtable{mask: match.Mask, entries: make(map[flow.Key]*Entry), lastHit: now}
		if m.cfg.StagedPruning {
			st.staged = newStagedState(match.Mask)
		}
		m.byMask[match.Mask] = st
		m.subtables = append(m.subtables, st)
		if m.hooks.Minted != nil {
			m.hooks.Minted(match)
		}
	}
	if old, ok := st.entries[match.Key]; ok {
		// Readers elsewhere (a PMD's EMC, a concurrent shard sweep) may
		// hold old, so its verdict never changes in place. An equal
		// verdict (the common duplicate-upcall case) refreshes the clocks
		// — a just-replaced entry is as live as a just-inserted one and
		// must not be swept by the next EvictIdle; a changed verdict
		// retires old (stale references die via the Dead check) and puts a
		// fresh entry in its slot. Either way the entry count is unchanged,
		// so a replacement is never refused by the flow limit.
		if old.Verdict == v {
			old.Added = now
			atomic.StoreUint64(&old.LastHit, now)
			return old, nil
		}
		old.dead.Store(true)
		ent := &Entry{Match: match, Verdict: v, Added: now, LastHit: now, shard: m.shard}
		st.entries[match.Key] = ent
		return ent, nil
	}
	if m.limit > 0 && m.nEntries >= m.limit {
		return nil, ErrFlowLimit
	}
	ent := &Entry{Match: match, Verdict: v, Added: now, LastHit: now, shard: m.shard}
	st.entries[match.Key] = ent
	st.addEntry(match.Key)
	m.nEntries++
	return ent, nil
}

// removeEntry is the single exit door for a resident entry: every
// eviction path funnels through it so the staged prefilters (stage
// indices, signature sets, ports tries) stay consistent with the entries
// map.
func (m *Megaflow) removeEntry(st *mfSubtable, k flow.Key, ent *Entry) {
	ent.dead.Store(true)
	delete(st.entries, k)
	st.dropEntry(k)
	m.nEntries--
}

// Remove deletes the entry with exactly the given match.
func (m *Megaflow) Remove(match flow.Match) bool {
	match.Normalize()
	st := m.byMask[match.Mask]
	if st == nil {
		return false
	}
	ent, ok := st.entries[match.Key]
	if !ok {
		return false
	}
	m.removeEntry(st, match.Key, ent)
	if len(st.entries) == 0 {
		m.dropSubtable(st)
	}
	return true
}

// evictColdestSubtable removes the least-recently-hit subtable and all of
// its entries — the LRU flavour of the mask-quota mitigation.
func (m *Megaflow) evictColdestSubtable() {
	if len(m.subtables) == 0 {
		return
	}
	coldest := m.subtables[0]
	for _, st := range m.subtables[1:] {
		if atomic.LoadUint64(&st.lastHit) < atomic.LoadUint64(&coldest.lastHit) {
			coldest = st
		}
	}
	for k, ent := range coldest.entries {
		m.removeEntry(coldest, k, ent)
	}
	m.dropSubtable(coldest)
}

func (m *Megaflow) dropSubtable(st *mfSubtable) {
	if m.hooks.Dropped != nil {
		m.hooks.Dropped(st.mask)
	}
	delete(m.byMask, st.mask)
	for i, have := range m.subtables {
		if have == st {
			m.subtables = append(m.subtables[:i], m.subtables[i+1:]...)
			return
		}
	}
}

// MaskHooks observe (and may veto) the lifecycle of masks — one hook
// call per subtable, every path funneled: Admit runs before a new
// subtable is minted and a non-nil error rejects the insert without
// minting; Minted runs right after a subtable is created; Dropped runs
// whenever one dies (mask-cap eviction, flow-limit trim, idle expiry,
// revalidation, or a wholesale Flush). This is the attachment point for
// per-tenant mask quota attribution (internal/guard's MaskLedger).
type MaskHooks struct {
	Admit   func(flow.Match) error
	Minted  func(flow.Match)
	Dropped func(flow.Mask)
}

// SetMaskHooks installs the mask lifecycle hooks. Hooks are fields on
// the cache rather than MegaflowConfig so the config stays comparable.
func (m *Megaflow) SetMaskHooks(h MaskHooks) { m.hooks = h }

// FlowLimit returns the current entry limit (non-positive: unlimited).
func (m *Megaflow) FlowLimit() int { return m.limit }

// SetFlowLimit adjusts the entry limit at run time — the revalidator's
// flow-limit lever (OVS's udpif flow_limit backoff). A non-positive n
// removes the limit. Cutting the limit below the resident entry count does
// not evict anything by itself: Insert starts rejecting new flows
// immediately, and the next maintenance dump calls TrimToLimit to sweep
// the stalest residents out.
func (m *Megaflow) SetFlowLimit(n int) { m.limit = n }

// TrimToLimit evicts the stalest entries — oldest LastHit, with Added and
// the match as deterministic tie-breaks — until the entry count is back
// within the flow limit, returning the eviction count. This is the
// staleness sweep a dynamic flow-limit cut triggers on the next
// revalidator dump; without it a cut below the resident count would only
// reject new inserts while the stale population squats forever.
func (m *Megaflow) TrimToLimit() int {
	if m.limit <= 0 || m.nEntries <= m.limit {
		return 0
	}
	type resident struct {
		st  *mfSubtable
		key flow.Key
		ent *Entry
	}
	all := make([]resident, 0, m.nEntries)
	for _, st := range m.subtables {
		for k, ent := range st.entries {
			all = append(all, resident{st, k, ent})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].ent, all[j].ent
		if al, bl := a.lastHit(), b.lastHit(); al != bl {
			return al < bl
		}
		if a.Added != b.Added {
			return a.Added < b.Added
		}
		return matchLess(a.Match, b.Match)
	})
	n := m.nEntries - m.limit
	for _, r := range all[:n] {
		m.removeEntry(r.st, r.key, r.ent)
	}
	for i := 0; i < len(m.subtables); {
		if len(m.subtables[i].entries) == 0 {
			m.dropSubtable(m.subtables[i])
			continue
		}
		i++
	}
	return n
}

// matchLess orders matches lexicographically (mask, then key) so staleness
// ties trim deterministically regardless of map iteration order.
func matchLess(a, b flow.Match) bool {
	for i := range a.Mask {
		if a.Mask[i] != b.Mask[i] {
			return a.Mask[i] < b.Mask[i]
		}
	}
	for i := range a.Key {
		if a.Key[i] != b.Key[i] {
			return a.Key[i] < b.Key[i]
		}
	}
	return false
}

// EvictIdle removes entries whose LastHit is older than deadline,
// returning how many were evicted. This is the revalidator's idle-timeout
// sweep (OVS max-idle, default 10s).
func (m *Megaflow) EvictIdle(deadline uint64) int {
	evicted := 0
	for i := 0; i < len(m.subtables); {
		st := m.subtables[i]
		for k, ent := range st.entries {
			if ent.lastHit() < deadline {
				m.removeEntry(st, k, ent)
				evicted++
			}
		}
		if len(st.entries) == 0 {
			m.dropSubtable(st)
			continue // subtables slice shifted; revisit index i
		}
		i++
	}
	return evicted
}

// Revalidate re-checks every entry against the slow path via check, which
// returns the fresh verdict and whether the entry may stay. Entries whose
// verdict changed or that must go are removed; the flush count is
// returned. This models the OVS revalidator's consistency pass after
// flow-table changes.
func (m *Megaflow) Revalidate(check func(*Entry) (Verdict, bool)) int {
	flushed := 0
	for i := 0; i < len(m.subtables); {
		st := m.subtables[i]
		for k, ent := range st.entries {
			v, keep := check(ent)
			if !keep || v != ent.Verdict {
				m.removeEntry(st, k, ent)
				flushed++
			}
		}
		if len(st.entries) == 0 {
			m.dropSubtable(st)
			continue
		}
		i++
	}
	return flushed
}

// Flush drops everything.
func (m *Megaflow) Flush() {
	for _, st := range m.subtables {
		for _, ent := range st.entries {
			ent.dead.Store(true)
		}
		if m.hooks.Dropped != nil {
			m.hooks.Dropped(st.mask)
		}
	}
	m.subtables = nil
	m.byMask = make(map[flow.Mask]*mfSubtable)
	m.nEntries = 0
}

// Entries returns all cached entries, subtable scan order first.
func (m *Megaflow) Entries() []*Entry {
	out := make([]*Entry, 0, m.nEntries)
	for _, st := range m.subtables {
		for _, ent := range st.entries {
			out = append(out, ent)
		}
	}
	return out
}

// AvgMasksScanned returns the running average subtables visited per
// lookup.
func (m *Megaflow) AvgMasksScanned() float64 {
	if m.Lookups == 0 {
		return 0
	}
	return float64(m.MasksScanned) / float64(m.Lookups)
}

// String summarises cache state like `ovs-dpctl show`.
func (m *Megaflow) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "megaflow cache: %d entries, %d masks, %.2f avg masks/lookup (hit %d / miss %d)\n",
		m.nEntries, len(m.subtables), m.AvgMasksScanned(), m.Hits, m.Misses)
	if m.cfg.StagedPruning {
		total := m.SubtableVisits + m.SubtablePrunes
		pruned := 0.0
		if total > 0 {
			pruned = 100 * float64(m.SubtablePrunes) / float64(total)
		}
		fmt.Fprintf(&b, "  staged pruning: %d visited / %d pruned (%.1f%%), %d stage bails, %d burst sweeps\n",
			m.SubtableVisits, m.SubtablePrunes, pruned, m.StageBails, m.BurstSweeps)
	}
	return b.String()
}

// ShardedMegaflow: the one megaflow cache every PMD of a shared pool
// reads and installs into. Only the megaflow is shared and sharded — the
// EMC and SMC in front of it stay per PMD (one plain instance per view),
// as in OVS-DPDK, whose exact-match and signature caches are never shared
// between cores.
//
// The cache partitions its entries by flow hash into S power-of-two
// shards, each a plain Megaflow behind a per-shard RWMutex:
//
//   - the read side (Lookup/LookupBatch) takes the shard *read* lock and
//     runs the child's own flat Lookup/LookupBatch, whose counter and
//     entry credits are atomic — so any number of PMD readers proceed
//     concurrently on one shard. Staged children re-rank their scan on
//     lookup, so their readers take the write lock instead;
//   - the write side (Insert, EvictIdle, TrimToLimit, Revalidate, Flush)
//     takes the shard *write* lock and runs the child's code unchanged,
//     excluding readers of that shard only.
//
// Shard placement uses bits [32,40) of the flow hash: disjoint from the
// SMC fingerprint (low bits), the SMC signature (top 16 bits) and PMD
// RSS steering (hash mod nPMD), so sharding stays decorrelated from the
// other hash consumers.
//
// A wildcard megaflow is installed into the shard of the *triggering
// key's* hash — the shard where that key's future lookups probe. Two
// keys covered by one megaflow but hashed to different shards therefore
// each mint their own copy (one extra upcall), exactly like OVS keeps an
// independent dpcls per PMD thread. Verdicts are identical either way;
// scan-cost and upcall attribution shifts per shard, which is the
// "counters modulo shard attribution" clause of the differential suite.
// With one shard nothing shifts: WithShards(1) counts exactly like the
// unsharded cache.
package cache

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"policyinject/internal/burst"
	"policyinject/internal/flow"
)

// DefaultShards is the shard count used when a caller asks for sharding
// without picking one.
const DefaultShards = 8

// shardShift positions the shard-index bits of the flow hash.
const shardShift = 32

// roundShards clamps and rounds a requested shard count to a power of
// two in [1, 256].
func roundShards(n int) int {
	if n > 256 {
		n = 256
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// perShardLimit splits a total entry limit across n shards (ceiling, so
// the shards jointly admit at least the total; non-positive passes
// through as "unlimited").
func perShardLimit(total, n int) int {
	if total <= 0 {
		return total
	}
	return (total + n - 1) / n
}

// mfShard is one megaflow shard: the child cache and the lock that
// guards it. Readers hold mu.RLock around the child's flat lookups; every
// mutation holds mu. Cross-shard access outside the lock is a bug the
// lockdiscipline analyzer's sharded rule flags.
//
//lint:sharded
type mfShard struct {
	mu sync.RWMutex
	mf *Megaflow
}

// MegaflowShardSnapshot is one shard's (or the aggregated) stats
// snapshot, assembled under the shard lock so plain reads are safe.
type MegaflowShardSnapshot struct {
	Entries, Masks                      int
	Hits, Misses, Lookups, MasksScanned uint64
	SubtableVisits, SubtablePrunes      uint64
}

// ShardedMegaflow is the concurrent megaflow cache: per-shard insert
// locks, lock-shared readers, per-shard maintenance. Safe for any mix of
// concurrent Lookup/LookupBatch/AccountRun with concurrent Insert,
// EvictIdle, TrimToLimit, Revalidate and Flush. The one exception is
// SetMaskHooks, which must run before traffic starts.
type ShardedMegaflow struct {
	smask  uint64 // shard index mask (nShards-1)
	staged bool   // children run staged pruning: reads serialize per shard
	limit  atomic.Int64
	shards []mfShard

	// hookMu guards the cross-shard mask ledger below: the same logical
	// mask may be resident in several shards (one subtable per shard),
	// but the user-facing mask lifecycle — quota admission, Minted,
	// Dropped, NumMasks — must see each mask once. The refcount map
	// tracks per-mask shard residency; user hooks fire on the 0->1 and
	// 1->0 edges only.
	hookMu    sync.Mutex
	userHooks MaskHooks
	maskRef   map[flow.Mask]int
	maxMasks  int
}

// NewShardedMegaflow builds a sharded megaflow cache with the given
// shard count (rounded to a power of two in [1, 256]; <= 0 means
// DefaultShards). The per-entry flow limit is split evenly across
// shards; the MaxMasks quota is enforced globally through the wrapper's
// mask ledger. SortByHits is incompatible with concurrent readers
// (lookups would reorder the scan) and is forced off; MaskEvictLRU
// would need cross-shard eviction and is not supported (callers reject
// it — see dataplane.WithShards).
func NewShardedMegaflow(cfg MegaflowConfig, shards int) *ShardedMegaflow {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := roundShards(shards)
	total := cfg.FlowLimit
	if total == 0 {
		total = DefaultFlowLimit
	}
	sm := &ShardedMegaflow{
		smask:    uint64(n - 1),
		staged:   cfg.StagedPruning,
		shards:   make([]mfShard, n),
		maskRef:  make(map[flow.Mask]int),
		maxMasks: cfg.MaxMasks,
	}
	sm.limit.Store(int64(total))
	child := cfg
	child.SortByHits = false
	child.MaxMasks = 0 // the wrapper's ledger owns the global cap
	child.MaskEvictLRU = false
	child.FlowLimit = perShardLimit(total, n)
	for i := range sm.shards {
		mf := NewMegaflow(child)
		mf.shard = uint8(i)
		mf.SetMaskHooks(MaskHooks{Admit: sm.admitShardMask, Minted: sm.shardMaskMinted, Dropped: sm.shardMaskDropped})
		sm.shards[i].mf = mf
	}
	return sm
}

// NumShards returns the shard count.
func (sm *ShardedMegaflow) NumShards() int { return len(sm.shards) }

// ShardIndex returns the shard a flow hash selects.
func (sm *ShardedMegaflow) ShardIndex(h uint64) int {
	return int((h >> shardShift) & sm.smask)
}

// admitShardMask is the per-child Admit hook: a mask already live in any
// shard is admitted for free (the logical subtable exists), the global
// MaxMasks cap gates next, and the user's quota hook decides last.
func (sm *ShardedMegaflow) admitShardMask(m flow.Match) error {
	sm.hookMu.Lock()
	defer sm.hookMu.Unlock()
	if sm.maskRef[m.Mask] > 0 {
		return nil
	}
	if sm.maxMasks > 0 && len(sm.maskRef) >= sm.maxMasks {
		return ErrMaskLimit
	}
	if sm.userHooks.Admit != nil {
		return sm.userHooks.Admit(m)
	}
	return nil
}

// shardMaskMinted refcounts a shard-level subtable mint, surfacing the
// user Minted hook only when the mask goes live globally.
func (sm *ShardedMegaflow) shardMaskMinted(m flow.Match) {
	sm.hookMu.Lock()
	defer sm.hookMu.Unlock()
	sm.maskRef[m.Mask]++
	if sm.maskRef[m.Mask] == 1 && sm.userHooks.Minted != nil {
		sm.userHooks.Minted(m)
	}
}

// shardMaskDropped refcounts a shard-level subtable drop, surfacing the
// user Dropped hook when the last shard releases the mask.
func (sm *ShardedMegaflow) shardMaskDropped(mask flow.Mask) {
	sm.hookMu.Lock()
	defer sm.hookMu.Unlock()
	if sm.maskRef[mask] == 0 {
		return
	}
	sm.maskRef[mask]--
	if sm.maskRef[mask] == 0 {
		delete(sm.maskRef, mask)
		if sm.userHooks.Dropped != nil {
			sm.userHooks.Dropped(mask)
		}
	}
}

// SetMaskHooks installs the user-facing mask lifecycle hooks. Must be
// called before concurrent traffic starts (hooks themselves are then
// invoked under the wrapper's ledger lock, serialized across shards).
func (sm *ShardedMegaflow) SetMaskHooks(h MaskHooks) {
	sm.hookMu.Lock()
	defer sm.hookMu.Unlock()
	sm.userHooks = h
}

// NumMasks returns the number of globally distinct masks (a mask
// resident in k shards counts once).
func (sm *ShardedMegaflow) NumMasks() int {
	sm.hookMu.Lock()
	defer sm.hookMu.Unlock()
	return len(sm.maskRef)
}

// Lookup runs the child's one-key sweep on the key's shard. Safe under
// any concurrency.
func (sm *ShardedMegaflow) Lookup(k flow.Key, now uint64) (*Entry, int, bool) {
	sh := &sm.shards[sm.ShardIndex(k.Hash())]
	if sm.staged {
		// Staged pruning mutates ranking state on lookup: staged shards
		// serialize their readers behind the write lock (still S-way
		// parallel across shards).
		sh.mu.Lock()
		ent, cost, ok := sh.mf.Lookup(k, now)
		sh.mu.Unlock()
		return ent, cost, ok
	}
	sh.mu.RLock()
	ent, cost, ok := sh.mf.Lookup(k, now)
	sh.mu.RUnlock()
	return ent, cost, ok
}

// LookupBatch resolves the burst's still-missing keys shard by shard:
// the miss bitmap is split by shard, and each shard that owns keys runs
// its child's own LookupBatch once over its share, under the shard's
// read lock (write lock for staged children). hashes must be the burst's
// flow hashes. split is the caller's scratch, sized by the call: callers
// sweeping concurrently each bring their own (the tier adapter of every
// PMD view owns one), so the cache itself stays read-only.
//
//lint:hotpath
func (sm *ShardedMegaflow) LookupBatch(keys []flow.Key, hashes []uint64, now uint64, ents []*Entry, costs []int, miss, split *burst.Bitmap) {
	var present [4]uint64 // shards owning a missing key (at most 256)
	words := miss.Words()
	for wi := range words {
		w := words[wi]
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			si := sm.ShardIndex(hashes[i])
			present[si>>6] |= 1 << uint(si&63)
		}
	}
	// split holds the keys not handed to their shard yet, plus those a
	// shard has already left unresolved; miss carries one shard's share
	// at a time.
	split.CopyFrom(miss)
	pend := split.Words()
	for pw, p := range present {
		for p != 0 {
			si := pw<<6 + bits.TrailingZeros64(p)
			p &= p - 1
			for wi := range pend {
				w := pend[wi]
				var share uint64
				for w != 0 {
					b := bits.TrailingZeros64(w)
					w &= w - 1
					if sm.ShardIndex(hashes[wi<<6+b]) == si {
						share |= 1 << uint(b)
					}
				}
				words[wi] = share
				pend[wi] &^= share
			}
			sh := &sm.shards[si]
			if sm.staged {
				sh.mu.Lock()
				sh.mf.LookupBatch(keys, now, ents, costs, miss)
				sh.mu.Unlock()
			} else {
				sh.mu.RLock()
				sh.mf.LookupBatch(keys, now, ents, costs, miss)
				sh.mu.RUnlock()
			}
			for wi := range pend {
				pend[wi] |= words[wi]
			}
		}
	}
	miss.CopyFrom(split)
}

// AccountRun bills n coalesced hits of ent at scan depth cost to the
// shard that minted ent, through the child's own AccountRun under that
// shard's read lock (write lock for staged children, whose run credit
// feeds the scan ranking).
func (sm *ShardedMegaflow) AccountRun(ent *Entry, n int, cost int, now uint64) bool {
	sh := &sm.shards[ent.shard]
	if sm.staged {
		sh.mu.Lock()
		ok := sh.mf.AccountRun(ent, n, cost, now)
		sh.mu.Unlock()
		return ok
	}
	sh.mu.RLock()
	ok := sh.mf.AccountRun(ent, n, cost, now)
	sh.mu.RUnlock()
	return ok
}

// Insert installs a megaflow into the shard of the triggering key's
// hash. Callers on the batched path use InsertHashed with the burst's
// cached hash; this variant hashes the *masked* key as a last resort,
// which only places correctly for exact-match (full-mask) megaflows —
// the dataplane always provides the real key hash.
func (sm *ShardedMegaflow) Insert(match flow.Match, v Verdict, now uint64) (*Entry, error) {
	return sm.InsertHashed(match, v, now, flow.Key(match.Key).Hash())
}

// InsertHashed installs a megaflow into the shard selected by keyHash,
// the flow hash of the key whose upcall synthesised the match.
func (sm *ShardedMegaflow) InsertHashed(match flow.Match, v Verdict, now uint64, keyHash uint64) (*Entry, error) {
	sh := &sm.shards[sm.ShardIndex(keyHash)]
	sh.mu.Lock()
	ent, err := sh.mf.Insert(match, v, now)
	sh.mu.Unlock()
	return ent, err
}

// EvictIdle sweeps every shard in turn, each under its own lock.
func (sm *ShardedMegaflow) EvictIdle(deadline uint64) int {
	n := 0
	for si := range sm.shards {
		n += sm.ShardEvictIdle(si, deadline)
	}
	return n
}

// ShardEvictIdle sweeps one shard — the per-shard revalidation dump.
func (sm *ShardedMegaflow) ShardEvictIdle(si int, deadline uint64) int {
	sh := &sm.shards[si]
	sh.mu.Lock()
	n := sh.mf.EvictIdle(deadline)
	sh.mu.Unlock()
	return n
}

// FlowLimit returns the total entry limit across shards.
func (sm *ShardedMegaflow) FlowLimit() int { return int(sm.limit.Load()) }

// SetFlowLimit sets the total entry limit, splitting it evenly across
// shards (ceiling). Safe to call concurrently with traffic — the
// revalidator's flow-limit lever.
func (sm *ShardedMegaflow) SetFlowLimit(n int) {
	sm.limit.Store(int64(n))
	per := perShardLimit(n, len(sm.shards))
	for si := range sm.shards {
		sh := &sm.shards[si]
		sh.mu.Lock()
		sh.mf.SetFlowLimit(per)
		sh.mu.Unlock()
	}
}

// ShardSetFlowLimit installs one shard's slice of a total limit of n
// entries — the per-shard revalidator view's lever: each shard view
// receives the same total and takes its 1/S share, so a full round over
// the shards is equivalent to one SetFlowLimit(n).
func (sm *ShardedMegaflow) ShardSetFlowLimit(si int, n int) {
	sm.limit.Store(int64(n))
	per := perShardLimit(n, len(sm.shards))
	sh := &sm.shards[si]
	sh.mu.Lock()
	sh.mf.SetFlowLimit(per)
	sh.mu.Unlock()
}

// TrimToLimit trims every shard to its slice of the flow limit.
func (sm *ShardedMegaflow) TrimToLimit() int {
	n := 0
	for si := range sm.shards {
		n += sm.ShardTrimToLimit(si)
	}
	return n
}

// ShardTrimToLimit trims one shard to its slice of the flow limit.
func (sm *ShardedMegaflow) ShardTrimToLimit(si int) int {
	sh := &sm.shards[si]
	sh.mu.Lock()
	n := sh.mf.TrimToLimit()
	sh.mu.Unlock()
	return n
}

// Revalidate re-checks every shard's entries against check, shard by
// shard. check runs under the shard's write lock and may be invoked from
// multiple shards' sweeps concurrently when the revalidator dumps shards
// on different workers — it must be pure (the classifier's read path
// is).
func (sm *ShardedMegaflow) Revalidate(check func(*Entry) (Verdict, bool)) int {
	n := 0
	for si := range sm.shards {
		n += sm.ShardRevalidate(si, check)
	}
	return n
}

// ShardRevalidate runs the consistency pass on one shard.
func (sm *ShardedMegaflow) ShardRevalidate(si int, check func(*Entry) (Verdict, bool)) int {
	sh := &sm.shards[si]
	sh.mu.Lock()
	n := sh.mf.Revalidate(check)
	sh.mu.Unlock()
	return n
}

// Flush drops everything, shard by shard.
func (sm *ShardedMegaflow) Flush() {
	for si := range sm.shards {
		sm.ShardFlush(si)
	}
}

// ShardFlush drops one shard's entries.
func (sm *ShardedMegaflow) ShardFlush(si int) {
	sh := &sm.shards[si]
	sh.mu.Lock()
	sh.mf.Flush()
	sh.mu.Unlock()
}

// Len returns the total resident entries across shards.
func (sm *ShardedMegaflow) Len() int {
	n := 0
	for si := range sm.shards {
		sh := &sm.shards[si]
		sh.mu.RLock()
		n += sh.mf.Len()
		sh.mu.RUnlock()
	}
	return n
}

// ShardLen returns one shard's resident entry count.
func (sm *ShardedMegaflow) ShardLen(si int) int {
	sh := &sm.shards[si]
	sh.mu.RLock()
	n := sh.mf.Len()
	sh.mu.RUnlock()
	return n
}

// Entries returns every resident entry, shard by shard in shard order.
// The snapshot is taken under the shard locks; the entries themselves
// may keep accruing hits after the call returns.
func (sm *ShardedMegaflow) Entries() []*Entry {
	var out []*Entry
	for si := range sm.shards {
		sh := &sm.shards[si]
		sh.mu.Lock()
		out = append(out, sh.mf.Entries()...)
		sh.mu.Unlock()
	}
	return out
}

// ShardSnapshot returns one shard's counters, read under the shard's
// write lock so the readers' atomic credits have settled.
func (sm *ShardedMegaflow) ShardSnapshot(si int) MegaflowShardSnapshot {
	sh := &sm.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return MegaflowShardSnapshot{
		Entries: sh.mf.Len(), Masks: sh.mf.NumMasks(),
		Hits: sh.mf.Hits, Misses: sh.mf.Misses,
		Lookups: sh.mf.Lookups, MasksScanned: sh.mf.MasksScanned,
		SubtableVisits: sh.mf.SubtableVisits, SubtablePrunes: sh.mf.SubtablePrunes,
	}
}

// Snapshot aggregates every shard's counters; Masks is the global
// distinct-mask count.
func (sm *ShardedMegaflow) Snapshot() MegaflowShardSnapshot {
	var agg MegaflowShardSnapshot
	for si := range sm.shards {
		s := sm.ShardSnapshot(si)
		agg.Entries += s.Entries
		agg.Hits += s.Hits
		agg.Misses += s.Misses
		agg.Lookups += s.Lookups
		agg.MasksScanned += s.MasksScanned
		agg.SubtableVisits += s.SubtableVisits
		agg.SubtablePrunes += s.SubtablePrunes
	}
	agg.Masks = sm.NumMasks()
	return agg
}

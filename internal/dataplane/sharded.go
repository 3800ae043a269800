// Sharded datapath assembly: the ConcurrentTier adapter over the cache
// package's sharded megaflow, the WithShards option that swaps it into
// the default hierarchy, and the per-shard revalidation targets.
package dataplane

import (
	"fmt"

	"policyinject/internal/burst"
	"policyinject/internal/cache"
	"policyinject/internal/classifier"
	"policyinject/internal/flow"
)

// WithShards shards the default hierarchy's megaflow cache by flow hash
// into n shards (rounded to a power of two in [1, 256]; n <= 0 means
// cache.DefaultShards), making it a ConcurrentTier: lookups proceed under
// per-shard read locks concurrently with installs, evictions and
// revalidation on other shards (and with readers on the same shard).
// Only the megaflow — where the attack's mask explosion lives — is
// sharded and shared; the EMC and SMC in front of it stay plain, one per
// PMD view, as in OVS-DPDK. This is the multi-writer switch — the
// prerequisite for NewSharedPMDPool and for per-shard revalidator
// attachment (Switch.ShardTargets). WithShards(1) counts exactly like the
// unsharded switch.
//
// New panics on combinations the concurrency contract cannot honour:
// WithTiers tiers that do not declare ConcurrentTier, a megaflow config
// with SortByHits (lookups would reorder the subtable vector under
// readers) or MaskEvictLRU (cross-shard LRU eviction would invert the
// shard/ledger lock order), WithTierWrapper (fault-injection wrappers
// are not concurrency-safe and would mask the capability), and
// WithConntrack (conntrack.Table is single-goroutine state, and a
// revalidator sweeping shards concurrently with traffic would expire it
// under the datapath's commits).
func WithShards(n int) Option {
	return func(c *config) {
		c.shards = n
		c.shardsSet = true
	}
}

// validateSharded rejects option combinations that violate the
// ConcurrentTier contract, mirroring NewPMDPool's WithTiers panic.
func validateSharded(cfg *config) {
	if cfg.tiersSet {
		for _, t := range cfg.tiers {
			if _, ok := t.(ConcurrentTier); !ok {
				panic(fmt.Sprintf("dataplane: WithShards requires every WithTiers tier to declare ConcurrentTier; %q does not", t.Name()))
			}
		}
	}
	if cfg.megaflow.SortByHits {
		panic("dataplane: WithShards is incompatible with Megaflow SortByHits (hit-count resorting races concurrent readers)")
	}
	if cfg.megaflow.MaskEvictLRU {
		panic("dataplane: WithShards is incompatible with MaskEvictLRU (cross-shard mask eviction would deadlock the shard/ledger lock order)")
	}
	if cfg.tierWrap != nil {
		panic("dataplane: WithShards is incompatible with WithTierWrapper (wrapped tiers lose the ConcurrentTier capability)")
	}
	if cfg.conntrack != nil {
		panic("dataplane: WithShards is incompatible with WithConntrack (conntrack.Table is single-goroutine state)")
	}
}

// ShardedMegaflowTier adapts cache.ShardedMegaflow to the Tier
// interface — the authoritative tier of the sharded hierarchy
// (ConcurrentTier, HashedMegaflowInstaller). The adapter owns the burst
// scratch of the shard split; every PMD view walks the shared cache
// through its own adapter.
type ShardedMegaflowTier struct {
	sm    *cache.ShardedMegaflow
	split burst.Bitmap
}

// NewShardedMegaflowTier builds a sharded megaflow tier with the given
// shard count (<= 0: cache.DefaultShards).
func NewShardedMegaflowTier(cfg cache.MegaflowConfig, shards int) *ShardedMegaflowTier {
	return &ShardedMegaflowTier{sm: cache.NewShardedMegaflow(cfg, shards)}
}

// view returns another adapter over the same cache, with its own scratch.
func (t *ShardedMegaflowTier) view() *ShardedMegaflowTier {
	return &ShardedMegaflowTier{sm: t.sm}
}

// ShardedMegaflow exposes the wrapped cache for inspection and
// experiments.
func (t *ShardedMegaflowTier) ShardedMegaflow() *cache.ShardedMegaflow { return t.sm }

func (t *ShardedMegaflowTier) Name() string     { return "megaflow" }
func (t *ShardedMegaflowTier) Path() Path       { return PathMegaflow }
func (t *ShardedMegaflowTier) ConcurrencySafe() {}
func (t *ShardedMegaflowTier) UsesFlowHashes()  {}

func (t *ShardedMegaflowTier) Lookup(k flow.Key, now uint64) (*cache.Entry, int, bool) {
	return t.sm.Lookup(k, now)
}

// LookupBatch runs the inverted subtable sweep shard by shard: each
// shard's lock is taken once per burst and its subtables visited once
// over the burst's keys hashing to that shard.
func (t *ShardedMegaflowTier) LookupBatch(keys []flow.Key, hashes []uint64, now uint64, ents []*cache.Entry, costs []int, miss *burst.Bitmap) {
	t.sm.LookupBatch(keys, hashes, now, ents, costs, miss, &t.split)
}

// AccountRun coalesces a same-flow run into n billed hits at the run's
// scan depth, on the shard that minted the run's entry.
func (t *ShardedMegaflowTier) AccountRun(ent *cache.Entry, n int, cost int, now uint64) bool {
	return t.sm.AccountRun(ent, n, cost, now)
}

// Install is a no-op: the megaflow tier mints its own entries via
// InsertMegaflowHashed.
func (t *ShardedMegaflowTier) Install(flow.Key, *cache.Entry) {}

func (t *ShardedMegaflowTier) Flush()                        { t.sm.Flush() }
func (t *ShardedMegaflowTier) EvictIdle(deadline uint64) int { return t.sm.EvictIdle(deadline) }

// FlowLimit, SetFlowLimit and TrimToLimit expose the total (cross-shard)
// entry limit as the revalidator's dynamic lever (LimitedTier).
func (t *ShardedMegaflowTier) FlowLimit() int     { return t.sm.FlowLimit() }
func (t *ShardedMegaflowTier) SetFlowLimit(n int) { t.sm.SetFlowLimit(n) }
func (t *ShardedMegaflowTier) TrimToLimit() int   { return t.sm.TrimToLimit() }

// Revalidate runs the consistency pass shard by shard
// (RevalidatableTier).
func (t *ShardedMegaflowTier) Revalidate(check func(*cache.Entry) (cache.Verdict, bool)) int {
	return t.sm.Revalidate(check)
}

// InsertMegaflow installs without a key hash — correct but degraded
// (the masked-key hash only places exact-match megaflows in the shard
// their lookups probe). The switch always uses InsertMegaflowHashed.
func (t *ShardedMegaflowTier) InsertMegaflow(match flow.Match, v cache.Verdict, now uint64) (*cache.Entry, error) {
	return t.sm.Insert(match, v, now)
}

// InsertMegaflowHashed installs into the shard of the triggering key's
// flow hash (HashedMegaflowInstaller).
func (t *ShardedMegaflowTier) InsertMegaflowHashed(match flow.Match, v cache.Verdict, now uint64, keyHash uint64) (*cache.Entry, error) {
	return t.sm.InsertHashed(match, v, now, keyHash)
}

func (t *ShardedMegaflowTier) Stats() TierStats {
	s := t.sm.Snapshot()
	return TierStats{
		Name: t.Name(), Hits: s.Hits, Misses: s.Misses,
		Entries: s.Entries, Masks: s.Masks,
		SubtableVisits: s.SubtableVisits, SubtablePrunes: s.SubtablePrunes,
	}
}

// mfShardTier is one shard of a ShardedMegaflowTier viewed as a Tier:
// the unit of per-shard revalidation. Its maintenance methods (Stats,
// EvictIdle, SetFlowLimit, TrimToLimit, Revalidate, Flush) operate on
// the one shard only — a revalidator worker sweeping shard i excludes
// only that shard's readers, not the switch. SetFlowLimit receives the
// revalidator's *total* limit and takes the shard's 1/S slice. The
// lookup-side methods delegate to the whole sharded cache (a shard view
// is not a datapath tier; they exist to satisfy the interface).
type mfShardTier struct {
	sm *cache.ShardedMegaflow
	si int
}

func (t *mfShardTier) Name() string     { return fmt.Sprintf("megaflow/s%d", t.si) }
func (t *mfShardTier) Path() Path       { return PathMegaflow }
func (t *mfShardTier) ConcurrencySafe() {}

func (t *mfShardTier) Lookup(k flow.Key, now uint64) (*cache.Entry, int, bool) {
	return t.sm.Lookup(k, now)
}
func (t *mfShardTier) Install(flow.Key, *cache.Entry) {}

func (t *mfShardTier) Flush()                        { t.sm.ShardFlush(t.si) }
func (t *mfShardTier) EvictIdle(deadline uint64) int { return t.sm.ShardEvictIdle(t.si, deadline) }

func (t *mfShardTier) FlowLimit() int     { return t.sm.FlowLimit() }
func (t *mfShardTier) SetFlowLimit(n int) { t.sm.ShardSetFlowLimit(t.si, n) }
func (t *mfShardTier) TrimToLimit() int   { return t.sm.ShardTrimToLimit(t.si) }

func (t *mfShardTier) Revalidate(check func(*cache.Entry) (cache.Verdict, bool)) int {
	return t.sm.ShardRevalidate(t.si, check)
}

func (t *mfShardTier) Stats() TierStats {
	s := t.sm.ShardSnapshot(t.si)
	return TierStats{
		Name: t.Name(), Hits: s.Hits, Misses: s.Misses,
		Entries: s.Entries, Masks: s.Masks,
		SubtableVisits: s.SubtableVisits, SubtablePrunes: s.SubtablePrunes,
	}
}

// ShardTarget is one shard of a sharded switch as a revalidation
// target: revalidator.Revalidator.AttachSharded attaches each as its
// own dump shard, so workers sweep shard-by-shard — each sweep excludes
// only its shard's readers, never the whole switch. Every target exposes
// the (read-pure) slow-path classifier for the policy consistency pass.
// A sharded switch has no connection tracker (WithShards rejects
// WithConntrack), so no target carries one.
type ShardTarget struct {
	name  string
	tiers []Tier
	cls   *classifier.Classifier
}

// Name identifies the shard target ("<switch>/shard<i>").
func (t *ShardTarget) Name() string { return t.name }

// Tiers returns the shard's maintenance view (the one per-shard
// megaflow tier; reference tiers invalidate lazily and need no sweep).
func (t *ShardTarget) Tiers() []Tier { return t.tiers }

// Classifier exposes the owning switch's slow path for the revalidator
// policy check (classification is read-pure, so concurrent shard sweeps
// may share it).
func (t *ShardTarget) Classifier() *classifier.Classifier { return t.cls }

// ShardTargets returns one revalidation target per megaflow shard, or
// nil when the hierarchy is not sharded. This is the attachment surface
// for maintenance concurrent with traffic: pass them to
// revalidator.Revalidator.AttachSharded (or Attach each) and maintenance
// proceeds shard-by-shard, concurrent with datapath traffic, with no
// switch-wide lock.
func (s *Switch) ShardTargets() []*ShardTarget {
	smt := s.shardedMegaflowTier()
	if smt == nil {
		return nil
	}
	sm := smt.ShardedMegaflow()
	out := make([]*ShardTarget, sm.NumShards())
	for i := range out {
		out[i] = &ShardTarget{
			name:  fmt.Sprintf("%s/shard%d", s.name, i),
			tiers: []Tier{&mfShardTier{sm: sm, si: i}},
			cls:   s.cls,
		}
	}
	return out
}

// shardedMegaflowTier finds the hierarchy's sharded authoritative tier,
// or nil.
func (s *Switch) shardedMegaflowTier() *ShardedMegaflowTier {
	for _, t := range s.tiers {
		if smt, ok := t.(*ShardedMegaflowTier); ok {
			return smt
		}
	}
	return nil
}

// ShardedMegaflow exposes the sharded megaflow cache for inspection and
// experiments, or nil when the hierarchy is not sharded (the sharded
// counterpart of Switch.Megaflow, which reports nil on sharded
// hierarchies).
func (s *Switch) ShardedMegaflow() *cache.ShardedMegaflow {
	if smt := s.shardedMegaflowTier(); smt != nil {
		return smt.ShardedMegaflow()
	}
	return nil
}

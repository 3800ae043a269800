// Package dataplane assembles the hypervisor switch the paper attacks: the
// slow-path classifier (package classifier) behind a composable hierarchy
// of fast-path cache tiers (package cache), with upcall handling,
// revalidation and counters — a functional model of the Open vSwitch
// datapath pipeline:
//
//	packet -> tier 0 (EMC) -> tier 1 (SMC, optional) -> tier N (megaflow TSS) -> upcall
//	                                                                                |
//	                            every tier  <---  install + promote  <-------------+
//
// The hierarchy is assembled with functional options (WithEMC, WithSMC,
// WithMegaflow, ...) or fully custom via WithTiers; the switch walks
// whatever tiers it was given, so real OVS variants — the 2.6 default
// (EMC+TSS), the 2.10 signature-match cache, EMC-off kernel deployments —
// and per-tier mitigations are all constructions, not forks.
//
// The switch is driven by a logical clock supplied by the caller (the
// simulator or the benchmarks), keeping every experiment deterministic.
package dataplane

import (
	"fmt"
	"math/bits"
	"strings"

	"policyinject/internal/burst"
	"policyinject/internal/cache"
	"policyinject/internal/classifier"
	"policyinject/internal/conntrack"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/telemetry"
)

// Path identifies which layer decided a packet's fate.
type Path uint8

const (
	PathEMC Path = iota
	PathSMC
	PathMegaflow
	PathSlow
)

func (p Path) String() string {
	switch p {
	case PathEMC:
		return "emc"
	case PathSMC:
		return "smc"
	case PathMegaflow:
		return "megaflow"
	default:
		return "slowpath"
	}
}

// config collects what the options assemble. It is internal: switches are
// built with New(name, opts...).
type config struct {
	emc        *cache.EMCConfig
	smc        *cache.SMCConfig
	megaflow   cache.MegaflowConfig
	classifier classifier.Config
	conntrack  *conntrack.Config
	tiers      []Tier // custom hierarchy (tiersSet): other cache opts ignored
	tiersSet   bool
	shards     int // WithShards: shard the default hierarchy's megaflow
	shardsSet  bool
	noCoalesce bool
	staged     bool
	upGuard    UpcallGuard
	maskGuard  MaskGuard
	tierWrap   func(Tier) Tier
	telemetry  *telemetry.Registry
}

// UpcallGuard is the upcall admission hook: consulted once per slow-path
// miss with the logical clock and the ingress port, a false return drops
// the packet at the datapath — no classification, no install
// (guard.Admission implements it).
type UpcallGuard interface {
	AdmitUpcall(now uint64, inPort uint32) bool
}

// MaskGuard observes and vetoes megaflow mask minting — the
// cache.MaskHooks trio as one interface, so per-tenant mask quota
// ledgers (guard.MaskLedger) attach through one option.
type MaskGuard interface {
	AdmitMask(flow.Match) error
	MaskMinted(flow.Match)
	MaskDropped(flow.Mask)
}

// Option configures a Switch under construction.
type Option func(*config)

// WithEMC sets the exact-match (microflow) cache configuration. The EMC is
// on by default; pass a negative Entries (or use WithoutEMC) to disable.
func WithEMC(cfg cache.EMCConfig) Option { return func(c *config) { c.emc = &cfg } }

// WithoutEMC removes the exact-match cache — the OVS *kernel* datapath
// model the paper's Kubernetes demo exercises.
func WithoutEMC() Option {
	return WithEMC(cache.EMCConfig{Entries: -1})
}

// WithSMC inserts OVS 2.10's signature-match cache between the EMC and the
// megaflow TSS (off by default, as in OVS).
func WithSMC(cfg cache.SMCConfig) Option { return func(c *config) { c.smc = &cfg } }

// WithMegaflow sets the megaflow TSS configuration (flow limits, mask
// quotas, sorted-TSS mitigation).
func WithMegaflow(cfg cache.MegaflowConfig) Option { return func(c *config) { c.megaflow = cfg } }

// WithStagedPruning enables staged subtable lookups with signature and
// L4-ports pruning plus EWMA scan ranking in the default megaflow tier
// (cache.MegaflowConfig.StagedPruning) — the OVS countermeasure that
// rejects most subtables without a full hash probe, bending the paper's
// attack curve. Composes with WithMegaflow in any order.
func WithStagedPruning() Option { return func(c *config) { c.staged = true } }

// WithClassifier sets the slow-path classifier configuration.
func WithClassifier(cfg classifier.Config) Option { return func(c *config) { c.classifier = cfg } }

// WithConntrack attaches a connection tracker so stateful ACLs
// (Recirc/Commit actions) work. Stateless rule sets are unaffected.
func WithConntrack(cfg conntrack.Config) Option { return func(c *config) { c.conntrack = &cfg } }

// WithUpcallGuard gates every slow-path upcall behind an admission
// check. Refused upcalls count in Counters.UpcallDrops and resolve to
// Deny without visiting the classifier.
func WithUpcallGuard(g UpcallGuard) Option { return func(c *config) { c.upGuard = g } }

// WithMaskGuard wires a mask-lifecycle guard (per-tenant quotas with
// attribution) into the hierarchy's megaflow cache.
func WithMaskGuard(g MaskGuard) Option { return func(c *config) { c.maskGuard = g } }

// WithTierWrapper interposes wrap on every tier of the assembled
// hierarchy before capability discovery — the fault-injection seam
// (internal/chaos wraps the megaflow tier through it).
func WithTierWrapper(wrap func(Tier) Tier) Option { return func(c *config) { c.tierWrap = wrap } }

// WithoutRunCoalescing disables same-flow run coalescing in ProcessBatch:
// consecutive identical keys are then classified one by one. The batched
// tier walk itself stays on. Used by the A/B benchmarks and the
// coalescing-exactness property tests.
func WithoutRunCoalescing() Option { return func(c *config) { c.noCoalesce = true } }

// WithTiers replaces the default hierarchy with an explicit tier list,
// walked in order. The cache options (WithEMC/WithSMC/WithMegaflow) are
// ignored when this is used. Upcall results are installed into the last
// tier implementing MegaflowInstaller; without one the switch still
// classifies correctly but caches nothing.
func WithTiers(tiers ...Tier) Option {
	return func(c *config) { c.tiers, c.tiersSet = tiers, true }
}

// Decision is the outcome of processing one packet.
type Decision struct {
	Verdict      cache.Verdict
	Path         Path
	MasksScanned int // megaflow subtables visited, summed over recirculations
	Recirculated bool
}

// TierHit is one tier's hit count in a Counters snapshot, in tier walk
// order.
type TierHit struct {
	Tier string
	Hits uint64
}

// Counters aggregates switch-level statistics. Cache hits are per tier
// (TierHits, in walk order); the EMCHits/MFHits accessors cover the common
// hierarchies. The whole struct is owned by the single-threaded switch
// loop, so the discipline counteratomic holds every field to is "always
// plain" — never mix in atomic access.
//
//lint:atomiccounters
type Counters struct {
	Packets    uint64
	TierHits   []TierHit
	Upcalls    uint64
	Allowed    uint64
	Denied     uint64
	ParseError uint64
	InstallErr uint64 // upcalls whose megaflow could not be installed

	// UpcallDrops counts misses refused by the upcall admission guard:
	// never classified, resolved to Deny at the datapath. Always zero
	// without WithUpcallGuard.
	UpcallDrops uint64
}

// HitsFor returns the hit count of the named tier (0 when absent).
func (c Counters) HitsFor(tier string) uint64 {
	for _, th := range c.TierHits {
		if th.Tier == tier {
			return th.Hits
		}
	}
	return 0
}

// EMCHits returns the exact-match tier's hit count.
func (c Counters) EMCHits() uint64 { return c.HitsFor("emc") }

// SMCHits returns the signature-match tier's hit count.
func (c Counters) SMCHits() uint64 { return c.HitsFor("smc") }

// MFHits returns the megaflow tier's hit count.
func (c Counters) MFHits() uint64 { return c.HitsFor("megaflow") }

// Port is a virtual port of the switch (a pod/VM attachment point).
type Port struct {
	ID   uint32
	Name string

	RxPackets, RxBytes uint64
	RxErrors           uint64 // malformed frames received (also counted in RxDropped)
	RxDropped          uint64
	TxPackets, TxBytes uint64
}

// Switch is the hypervisor switch instance. Not safe for concurrent use;
// experiments drive it from one goroutine, as a single PMD thread would.
// For the multi-core view, see PMDPool.
type Switch struct {
	name  string
	table flowtable.Table
	cls   *classifier.Classifier
	ports map[uint32]*Port

	tiers      []Tier
	batchTiers []BatchTier // tiers, as the batch tiers the walk calls
	tierHits   []uint64
	hashedInst []HashedInstaller       // per-tier hashed-install capability (nil entries: plain Install)
	installer  MegaflowInstaller       // last installer tier, nil if none
	hashedMF   HashedMegaflowInstaller // installer's hash-aware capability, nil without
	promoteTo  int                     // tiers[:promoteTo] receive upcall promotions
	noCoalesce bool                    // disable same-flow run coalescing
	needHashes bool                    // some tier consumes burst flow hashes (HashUser/HashedInstaller)
	upGuard    UpcallGuard             // optional upcall admission guard

	ct *conntrack.Table

	tel *telemetryHooks // live-telemetry handles, nil without WithTelemetry

	counters Counters
	batch    batchScratch

	frameHash []uint64   // ProcessFrames' cached burst hashes
	oneFrame  FrameBatch // scalar Process's one-frame batch
	oneOut    []Decision
}

// batchScratch is the per-switch working set ProcessBatch reuses across
// bursts, so steady-state batch classification allocates nothing.
type batchScratch struct {
	hashes []uint64
	ents   []*cache.Entry
	costs  []int
	runs   []int // start index of each same-key run, ascending
	hits   []int // indices resolved by the current tier pass
	miss   burst.Bitmap
	prev   burst.Bitmap
}

func (bs *batchScratch) grow(n int) {
	if cap(bs.hashes) < n {
		bs.hashes = make([]uint64, n)
		bs.ents = make([]*cache.Entry, n)
		bs.costs = make([]int, n)
	}
	bs.hashes = bs.hashes[:n]
	bs.ents = bs.ents[:n]
	bs.costs = bs.costs[:n]
	bs.runs = bs.runs[:0]
}

// New builds a Switch with the given name and options. With no options the
// hierarchy is the stock OVS userspace datapath: default EMC in front of a
// default megaflow TSS. New panics if a tier of the hierarchy is not a
// BatchTier.
func New(name string, opts ...Option) *Switch {
	cfg := buildConfig(opts)
	return newSwitch(name, &cfg)
}

// buildConfig applies opts and the defaults, rejecting combinations the
// sharded contract cannot honour.
func buildConfig(opts []Option) config {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.staged {
		cfg.megaflow.StagedPruning = true
	}
	if cfg.shardsSet {
		validateSharded(&cfg)
	}
	return cfg
}

func newSwitch(name string, cfg *config) *Switch {
	tiers := cfg.tiers
	if !cfg.tiersSet {
		var mf Tier = NewMegaflowTier(cfg.megaflow)
		if cfg.shardsSet {
			mf = NewShardedMegaflowTier(cfg.megaflow, cfg.shards)
		}
		tiers = append(frontCaches(name, cfg), mf)
	}
	if cfg.tierWrap != nil {
		wrapped := make([]Tier, len(tiers))
		for i, t := range tiers {
			wrapped[i] = cfg.tierWrap(t)
		}
		tiers = wrapped
	}
	s := &Switch{
		name:       name,
		cls:        classifier.New(cfg.classifier),
		ports:      make(map[uint32]*Port),
		noCoalesce: cfg.noCoalesce,
		upGuard:    cfg.upGuard,
	}
	s.setTiers(tiers)
	if cfg.conntrack != nil {
		s.ct = conntrack.New(*cfg.conntrack)
	}
	if g := cfg.maskGuard; g != nil {
		if mf := s.Megaflow(); mf != nil {
			mf.SetMaskHooks(cache.MaskHooks{Admit: g.AdmitMask, Minted: g.MaskMinted, Dropped: g.MaskDropped})
		} else if smf := s.ShardedMegaflow(); smf != nil {
			// Sharded hierarchy: the guard sits behind the wrapper's
			// cross-shard ledger, which refcounts per-shard subtable
			// copies so the guard sees each logical mask once.
			smf.SetMaskHooks(cache.MaskHooks{Admit: g.AdmitMask, Minted: g.MaskMinted, Dropped: g.MaskDropped})
		}
	}
	if cfg.telemetry != nil {
		s.tel = newTelemetryHooks(cfg.telemetry, s)
	}
	return s
}

// frontCaches builds the default hierarchy's EMC and SMC for the switch
// or PMD view named name — plain, single-owner tiers, whichever way the
// megaflow behind them is built.
func frontCaches(name string, cfg *config) []Tier {
	var tiers []Tier
	emcCfg := cache.EMCConfig{}
	if cfg.emc != nil {
		emcCfg = *cfg.emc
	}
	smcOn := cfg.smc != nil && cfg.smc.Entries >= 0
	if emcCfg.Entries >= 0 {
		// OVS couples smc-enable with probabilistic EMC insertion: the
		// SMC absorbs the flows the EMC no longer caches eagerly. Force
		// the stock emc-insert-inv-prob of 1/100 unless the caller set
		// an insertion policy explicitly; seed the PRNG from the switch
		// name so every experiment run draws the same sequence.
		if smcOn && emcCfg.InsertProb == 0 && emcCfg.InsertEvery == 0 {
			emcCfg.InsertProb = cache.DefaultEMCInsertProb
		}
		if emcCfg.Seed == 0 {
			emcCfg.Seed = nameSeed(name)
		}
		tiers = append(tiers, NewEMCTier(emcCfg))
	}
	if smcOn {
		tiers = append(tiers, NewSMCTier(*cfg.smc))
	}
	return tiers
}

// setTiers installs the hierarchy the switch walks and discovers its
// capabilities: the batch walk, the hash consumers and the installer.
func (s *Switch) setTiers(tiers []Tier) {
	s.tiers = tiers
	s.batchTiers = make([]BatchTier, len(tiers))
	s.tierHits = make([]uint64, len(tiers))
	s.hashedInst = make([]HashedInstaller, len(tiers))
	for i, t := range tiers {
		bt, ok := t.(BatchTier)
		if !ok {
			panic(fmt.Sprintf("dataplane: tier %q does not implement BatchTier", t.Name()))
		}
		s.batchTiers[i] = bt
		if _, ok := t.(HashUser); ok {
			s.needHashes = true
		}
		if hi, ok := t.(HashedInstaller); ok {
			s.hashedInst[i] = hi
			s.needHashes = true
		}
	}
	for i := len(tiers) - 1; i >= 0; i-- {
		if inst, ok := tiers[i].(MegaflowInstaller); ok {
			s.installer = inst
			s.promoteTo = i
			if hmf, ok := inst.(HashedMegaflowInstaller); ok {
				// Hash-aware installs (the sharded megaflow): the upcall path
				// carries the triggering key's flow hash so the megaflow
				// lands in the shard that key's lookups probe.
				s.hashedMF = hmf
				s.needHashes = true
			}
			break
		}
	}
}

// nameSeed derives the per-switch PRNG seed for probabilistic EMC
// insertion: FNV-1a over the switch name, so a named switch draws the
// same reproducible sequence in every run while distinct PMDs
// ("<name>/pmd<i>") draw distinct ones.
func nameSeed(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// Name returns the configured switch name.
func (s *Switch) Name() string { return s.name }

// Tiers returns the cache hierarchy in walk order.
func (s *Switch) Tiers() []Tier { return s.tiers }

// AddPort creates a port with the given id, returning it. Adding an
// existing id returns the existing port.
func (s *Switch) AddPort(id uint32, name string) *Port {
	if p, ok := s.ports[id]; ok {
		return p
	}
	p := &Port{ID: id, Name: name}
	s.ports[id] = p
	return p
}

// Port returns the port with the given id, or nil.
func (s *Switch) Port(id uint32) *Port { return s.ports[id] }

// Ports returns all ports (unordered).
func (s *Switch) Ports() []*Port {
	out := make([]*Port, 0, len(s.ports))
	for _, p := range s.ports {
		out = append(out, p)
	}
	return out
}

// InstallRule adds a policy rule to the slow path. Installed caches are
// flushed: a policy change invalidates cached verdicts wholesale, the
// conservative variant of the OVS revalidator's consistency pass.
func (s *Switch) InstallRule(r flowtable.Rule) *flowtable.Rule {
	stored := s.table.Insert(r)
	s.cls.Insert(stored)
	s.flushCaches()
	return stored
}

// RemoveRule removes a rule previously installed.
func (s *Switch) RemoveRule(r *flowtable.Rule) bool {
	if !s.table.Remove(r) {
		return false
	}
	s.cls.Remove(r)
	s.flushCaches()
	return true
}

func (s *Switch) flushCaches() {
	for _, t := range s.tiers {
		t.Flush()
	}
}

// Rules returns the installed rules in evaluation order.
func (s *Switch) Rules() []*flowtable.Rule { return s.table.Rules() }

// Process runs one frame received on port inPort through the pipeline at
// logical time now. It is a legacy scalar shim kept for tests and
// single-packet probes: a one-frame batch through ProcessFrames, which
// is the one documented ingress of the switch. Production-shaped callers
// (cmd/, examples/, the simulator) assemble FrameBatch bursts and call
// ProcessFrames — the burst is the unit of the datapath, and the batched
// walk is where hash caching, run coalescing and the inverted subtable
// sweep live.
func (s *Switch) Process(now uint64, inPort uint32, frame []byte) (Decision, error) {
	fb := &s.oneFrame
	fb.Reset()
	fb.Append(frame, inPort)
	s.oneOut = s.ProcessFrames(now, fb, s.oneOut)
	return s.oneOut[0], fb.Err(0)
}

// ProcessKey classifies an already-extracted key — a legacy measurement
// hook for benchmarks and property tests that bypasses frame parsing.
// Like Process it is not an ingress: external callers drive the switch
// through ProcessFrames (or ProcessBatch when keys are pre-extracted in
// bulk). Packets hitting a conntrack dispatch rule are
// recirculated once: the connection tracker classifies the 5-tuple, the
// ct_state field is stamped into the key, and the pipeline runs again —
// both passes billed, as both cost the real switch.
func (s *Switch) ProcessKey(now uint64, k flow.Key) Decision {
	s.counters.Packets++
	return s.processOne(now, k)
}

// processOne is ProcessKey minus the packet counter, so batch callers can
// bill a whole burst with one add.
func (s *Switch) processOne(now uint64, k flow.Key) Decision {
	d, _, _ := s.processOneTracked(now, k)
	return d
}

// processOneTracked is processOne plus the hit provenance the run
// coalescer needs: the index of the tier that answered and the entry it
// returned. A slow-path or recirculated decision reports tier -1 (such
// decisions are never coalesced).
func (s *Switch) processOneTracked(now uint64, k flow.Key) (Decision, int, *cache.Entry) {
	d, ti, ent := s.classifyTracked(now, k)
	if !d.Verdict.Recirc {
		s.account(d.Verdict)
		return d, ti, ent
	}
	return s.finishRecirc(now, k, d), -1, nil
}

// finishRecirc completes a packet whose first pass hit a conntrack
// dispatch rule: the connection tracker classifies the 5-tuple, the
// ct_state field is stamped into the key, and the pipeline runs again —
// both passes billed, as both cost the real switch.
func (s *Switch) finishRecirc(now uint64, k flow.Key, d Decision) Decision {
	if s.ct == nil {
		// A stateful rule set on a switch without conntrack: fail closed.
		s.counters.Denied++
		d.Verdict = cache.Verdict{Verdict: flowtable.Deny}
		return d
	}
	tuple := k.Tuple()
	state, _ := s.ct.Lookup(tuple, now)
	k2 := k
	k2.Set(flow.FieldCTState, state.CTBits())
	d2 := s.classifyOnce(now, k2)
	d2.MasksScanned += d.MasksScanned
	d2.Recirculated = true
	if d2.Verdict.Recirc {
		// A second dispatch would loop; fail closed.
		d2.Verdict = cache.Verdict{Verdict: flowtable.Deny}
	}
	if d2.Verdict.Verdict == flowtable.Allow && d2.Verdict.Commit {
		if !s.ct.Commit(tuple, now) {
			// Table full: netfilter drops what it cannot track.
			d2.Verdict = cache.Verdict{Verdict: flowtable.Deny}
		}
	}
	s.account(d2.Verdict)
	return d2
}

// GrowDecisions returns out resized to n decisions, reallocating only
// when its capacity is insufficient — the shared output-buffer contract
// of every ProcessBatch implementation.
func GrowDecisions(out []Decision, n int) []Decision {
	if cap(out) < n {
		out = make([]Decision, n)
	}
	return out[:n]
}

// ProcessBatch classifies a batch of keys at logical time now, writing one
// Decision per key into out (grown if needed) and returning it. Batching
// is the first-class driving surface: the simulator and the PMD pool hand
// whole NIC bursts to the pipeline instead of one packet at a time.
//
// The burst is the unit of classification: flow hashes are computed once
// at batch entry, consecutive identical keys are coalesced into one lookup
// plus n accountings (same-flow runs, the shape heavy-tailed flow-size
// distributions produce), and the remaining distinct keys sweep the tier
// hierarchy one tier pass at a time over a miss bitmap — the megaflow pass
// visits each subtable once per burst instead of once per key. Within a
// burst, one key's cache promotions become visible to later *tier passes*
// of the same walk and to later packets of its own run — not to other
// keys already swept past that tier. In particular a key repeated in two
// non-consecutive runs of one burst is probed once per run in the same
// sweep, so the second run does not see the first's promotions and may
// answer from a lower tier than a sequential ProcessKey loop would (the
// verdict is identical either way). This is the visibility rule of OVS's
// dp_packet_batch processing; exact batch==sequential equivalence holds
// for bursts whose duplicate keys are consecutive.
func (s *Switch) ProcessBatch(now uint64, keys []flow.Key, out []Decision) []Decision {
	out = GrowDecisions(out, len(keys))
	s.counters.Packets += uint64(len(keys))
	s.processBatch(now, keys, nil, out)
	return out
}

// processBatch is ProcessBatch minus the packet counter and output
// growth. hashes, when non-nil, carries the burst's precomputed flow
// hashes (flow.HashKeys, index-aligned with keys); nil computes them here.
func (s *Switch) processBatch(now uint64, keys []flow.Key, hashes []uint64, out []Decision) {
	n := len(keys)
	switch n {
	case 0:
		return
	case 1:
		out[0] = s.processOne(now, keys[0])
		return
	}
	bs := &s.batch
	bs.grow(n)

	// Same-flow run detection: a run of consecutive identical keys (an
	// elephant-flow burst) enters the tier walk once, through its first
	// key; the copies are settled against the warm cache afterwards.
	bs.runs = append(bs.runs, 0)
	for i := 1; i < n; i++ {
		if keys[i] != keys[i-1] {
			bs.runs = append(bs.runs, i)
		}
	}

	if hashes == nil && s.needHashes {
		// Batch-entry hash pass: one Hash per run head, reused by every
		// hash-consuming tier instead of re-hashing per probe; a run's
		// copies take the head's hash by assignment (identical keys,
		// identical hashes — and hashing dominates copying 40:1 on the
		// elephant mix). Skipped when no tier declares HashUser.
		if cap(bs.hashes) < n {
			bs.hashes = make([]uint64, n)
		}
		bs.hashes = bs.hashes[:n]
		for ri, r := range bs.runs {
			end := n
			if ri+1 < len(bs.runs) {
				end = bs.runs[ri+1]
			}
			h := keys[r].Hash()
			for i := r; i < end; i++ {
				bs.hashes[i] = h
			}
		}
		hashes = bs.hashes
	}

	// Vectorized tier walk over the run representatives: each tier
	// resolves what it can for the whole burst before the walk descends.
	bs.miss.Reset(n)
	for _, r := range bs.runs {
		bs.miss.Set(r)
		bs.ents[r] = nil
		bs.costs[r] = 0
	}
	for ti, t := range s.batchTiers {
		if bs.miss.Empty() {
			break
		}
		bs.prev.CopyFrom(&bs.miss)
		var tierStart uint64
		if s.tel != nil {
			tierStart = telemetry.Clock()
		}
		t.LookupBatch(keys, hashes, now, bs.ents, bs.costs, &bs.miss)
		if s.tel != nil {
			// Tier-pass latency: one observation per burst per tier, wall
			// time of the LookupBatch pass alone.
			s.tel.tierNs[ti].Record(telemetry.Clock() - tierStart)
		}
		// Bill and promote this pass's hits (prev &^ miss), exactly as the
		// scalar walk would: hit on tier ti installs into tiers [0, ti).
		// Promotion reuses the burst's cached hashes where a tier can take
		// them (the SMC batch insert path).
		bs.hits = bs.prev.AndNot(&bs.miss, bs.hits[:0])
		for _, i := range bs.hits {
			s.tierHits[ti]++
			s.promoteHashed(keys[i], hashAt(hashes, i), hashes != nil, bs.ents[i], ti)
			out[i] = Decision{Verdict: bs.ents[i].Verdict, Path: t.Path(), MasksScanned: bs.costs[i]}
		}
	}

	// Upcall tail, in input order. An upcall can install a megaflow that
	// covers later misses of the same burst, so once anything has been
	// installed the remaining misses re-probe the authoritative tier
	// before their own upcall — the post-upcall re-lookup real datapaths
	// do to avoid duplicate installs.
	if !bs.miss.Empty() {
		installs := 0
		words := bs.miss.Words()
		for wi := range words {
			w := words[wi]
			for w != 0 {
				i := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				out[i] = s.upcallOne(now, keys[i], hashAt(hashes, i), hashes != nil, bs.costs[i], &installs)
			}
		}
	}

	// Verdict accounting and conntrack recirculation for the
	// representatives, in input order.
	for _, r := range bs.runs {
		if out[r].Verdict.Recirc {
			out[r] = s.finishRecirc(now, keys[r], out[r])
		} else {
			s.account(out[r].Verdict)
		}
	}

	// Settle the runs: every non-representative copy classifies against
	// the cache its run's first key just warmed.
	for ri, start := range bs.runs {
		end := n
		if ri+1 < len(bs.runs) {
			end = bs.runs[ri+1]
		}
		if end-start > 1 {
			s.processRun(now, keys[start], out, start+1, end)
		}
	}
}

// processRun classifies copies [from, to) of one key whose first copy the
// batch walk already settled. The first copy here takes a real scalar
// walk (it sees the promotions its predecessor installed); if it lands
// stably in the top tier and the tier can coalesce, the remaining copies
// collapse into one AccountRun — one lookup plus n accountings for the
// whole elephant burst. Anything unstable (slow path, recirculation,
// probabilistic-insertion hierarchies still warming) falls back to exact
// per-copy processing.
func (s *Switch) processRun(now uint64, k flow.Key, out []Decision, from, to int) {
	d, tierIdx, ent := s.processOneTracked(now, k)
	out[from] = d
	rest := to - from - 1
	if rest == 0 {
		return
	}
	if !s.noCoalesce && tierIdx == 0 && !d.Recirculated {
		if rc, ok := s.tiers[0].(RunCoalescer); ok && rc.AccountRun(ent, rest, d.MasksScanned, now) {
			s.tierHits[0] += uint64(rest)
			if d.Verdict.Verdict == flowtable.Allow {
				s.counters.Allowed += uint64(rest)
			} else {
				s.counters.Denied += uint64(rest)
			}
			for i := from + 1; i < to; i++ {
				out[i] = d
			}
			return
		}
	}
	for i := from + 1; i < to; i++ {
		out[i] = s.processOne(now, k)
	}
}

// hashAt indexes the burst's cached hashes, tolerating a nil hash pass
// (callers gate use on hashes != nil).
func hashAt(hashes []uint64, i int) uint64 {
	if hashes == nil {
		return 0
	}
	return hashes[i]
}

// promoteHashed installs ent into tiers [0, upto). When the burst's cached
// flow hash for k is resident (hasHash), tiers implementing
// HashedInstaller consume it instead of re-hashing the key — the batch
// walk's install path, which is what lets SMC promotions ride the burst's
// single hash pass.
func (s *Switch) promoteHashed(k flow.Key, h uint64, hasHash bool, ent *cache.Entry, upto int) {
	for i, upper := range s.tiers[:upto] {
		if hasHash && s.hashedInst[i] != nil {
			s.hashedInst[i].InstallHashed(k, h, ent)
		} else {
			upper.Install(k, ent)
		}
	}
}

// upcallOne settles one batch-walk miss: re-probe the authoritative tier
// when a same-burst upcall may have covered the key, then fall to the
// slow path. sweepCost is the scan cost the walk already accrued for the
// key (the cost a scalar walk would report for the miss); h/hasHash carry
// the key's cached burst hash for the promotion path.
func (s *Switch) upcallOne(now uint64, k flow.Key, h uint64, hasHash bool, sweepCost int, installs *int) Decision {
	if *installs > 0 && s.installer != nil {
		ent, cost, ok := s.installer.Lookup(k, now)
		if ok {
			s.tierHits[s.promoteTo]++
			s.promoteHashed(k, h, hasHash, ent, s.promoteTo)
			return Decision{Verdict: ent.Verdict, Path: s.installer.Path(), MasksScanned: cost}
		}
		sweepCost = cost
	}
	d, installed := s.upcallHashed(now, k, h, hasHash, sweepCost)
	if installed {
		*installs++
	}
	return d
}

// classifyOnce runs one pipeline pass (tier walk -> upcall) without
// verdict accounting or recirculation handling.
func (s *Switch) classifyOnce(now uint64, k flow.Key) Decision {
	d, _, _ := s.classifyTracked(now, k)
	return d
}

// classifyTracked is the scalar tier walk: a hit on tier i is promoted
// into tiers [0, i); an upcall's synthesised megaflow is installed into
// the authoritative tier and promoted above it. It also reports the
// answering tier's index (-1 for the slow path) and entry, the provenance
// the run coalescer keys on.
func (s *Switch) classifyTracked(now uint64, k flow.Key) (Decision, int, *cache.Entry) {
	scanned := 0
	for i, t := range s.tiers {
		ent, cost, ok := t.Lookup(k, now)
		scanned += cost
		if !ok {
			continue
		}
		s.tierHits[i]++
		for _, upper := range s.tiers[:i] {
			upper.Install(k, ent)
		}
		return Decision{Verdict: ent.Verdict, Path: t.Path(), MasksScanned: scanned}, i, ent
	}
	d, _ := s.upcall(now, k, scanned)
	return d, -1, nil
}

// upcall runs the full slow-path classification, then caches the
// synthesised megaflow in the authoritative tier and references it from
// the tiers above, so their hits keep the flow warm. The bool reports
// whether a megaflow was installed (the batch tail uses it to decide when
// later misses must re-probe).
//
//lint:coldpath
func (s *Switch) upcall(now uint64, k flow.Key, scanned int) (Decision, bool) {
	return s.upcallHashed(now, k, 0, false, scanned)
}

// upcallHashed is upcall carrying the key's cached burst hash for the
// promotion of the freshly installed megaflow.
//
//lint:coldpath
func (s *Switch) upcallHashed(now uint64, k flow.Key, h uint64, hasHash bool, scanned int) (Decision, bool) {
	if s.upGuard != nil && !s.upGuard.AdmitUpcall(now, uint32(k.Get(flow.FieldInPort))) {
		// Refused at admission: the packet is dropped at the datapath
		// without a slow-path visit — no classification, no install.
		s.counters.UpcallDrops++
		return Decision{Verdict: cache.Verdict{Verdict: flowtable.Deny}, Path: PathSlow, MasksScanned: scanned}, false
	}
	s.counters.Upcalls++
	res := s.cls.Lookup(k)
	v := cache.Verdict{Verdict: flowtable.Deny}
	if res.Rule != nil {
		v = res.Rule.Action
	}
	installed := false
	if s.installer != nil {
		var ent *cache.Entry
		var err error
		if s.hashedMF != nil {
			// Sharded installer: the megaflow must land in the shard the
			// triggering key's lookups probe, selected by the key's full
			// flow hash (computed here when the burst's hash pass did not
			// run — scalar ProcessKey callers).
			if !hasHash {
				h = k.Hash()
			}
			ent, err = s.hashedMF.InsertMegaflowHashed(res.Megaflow, v, now, h)
		} else {
			ent, err = s.installer.InsertMegaflow(res.Megaflow, v, now)
		}
		if err != nil {
			s.counters.InstallErr++
		} else {
			s.promoteHashed(k, h, hasHash, ent, s.promoteTo)
			installed = true
		}
	}
	return Decision{Verdict: v, Path: PathSlow, MasksScanned: scanned}, installed
}

func (s *Switch) account(v cache.Verdict) {
	if v.Verdict == flowtable.Allow {
		s.counters.Allowed++
	} else {
		s.counters.Denied++
	}
}

// Conntrack exposes the connection tracker, or nil when stateless.
func (s *Switch) Conntrack() *conntrack.Table { return s.ct }

// Counters returns a snapshot of the switch counters.
func (s *Switch) Counters() Counters {
	c := s.counters
	c.TierHits = make([]TierHit, len(s.tiers))
	for i, t := range s.tiers {
		c.TierHits[i] = TierHit{Tier: t.Name(), Hits: s.tierHits[i]}
	}
	return c
}

// EMC exposes the microflow cache for inspection and experiments, or nil
// when the hierarchy has no EMC tier.
func (s *Switch) EMC() *cache.EMC {
	for _, t := range s.tiers {
		if et, ok := t.(*EMCTier); ok {
			return et.EMC()
		}
	}
	return nil
}

// SMC exposes the signature-match cache, or nil when the hierarchy has no
// SMC tier.
func (s *Switch) SMC() *cache.SMC {
	for _, t := range s.tiers {
		if st, ok := t.(*SMCTier); ok {
			return st.SMC()
		}
	}
	return nil
}

// megaflowBacked is any tier backed by a megaflow cache — the concrete
// MegaflowTier, but equally a fault-injection wrapper forwarding to one.
type megaflowBacked interface{ Megaflow() *cache.Megaflow }

// Megaflow exposes the megaflow cache for inspection and experiments, or
// nil when the hierarchy has no megaflow tier.
func (s *Switch) Megaflow() *cache.Megaflow {
	for _, t := range s.tiers {
		if mt, ok := t.(megaflowBacked); ok {
			return mt.Megaflow()
		}
	}
	return nil
}

// Classifier exposes the slow-path classifier for inspection.
func (s *Switch) Classifier() *classifier.Classifier { return s.cls }

// String renders a dpctl-style summary.
func (s *Switch) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "switch %q: %d rules, %d ports\n", s.name, s.table.Len(), len(s.ports))
	fmt.Fprintf(&b, "  counters: %+v\n", s.Counters())
	for _, t := range s.tiers {
		if mt, ok := t.(megaflowBacked); ok {
			fmt.Fprintf(&b, "  %s", mt.Megaflow().String())
			continue
		}
		fmt.Fprintf(&b, "  %s\n", t.Stats())
	}
	return b.String()
}

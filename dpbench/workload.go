package main

import (
	"fmt"

	"policyinject/internal/attack"
	"policyinject/internal/cache"
	"policyinject/internal/dataplane"
	"policyinject/internal/revalidator"
)

// idleJump is how far the inject workload advances the logical clock
// between cycles: one unit past the revalidator's default max-idle of 10,
// so the round that follows expires every entry of the cycle.
const idleJump = 11

// params sizes the workloads. The benchmark runs fullSize; tests shrink
// it so the same code paths finish in milliseconds.
type params struct {
	mixFlows   int                   // warm-mix distinct flows
	warmBursts int                   // warm-mix warm-up bursts
	covert     func() *attack.Attack // covert stream of attack8192 and inject
	victims    int                   // attack8192 victim flows
	minBursts  int                   // fewest bursts a measured run holds
	// wrap, when set, wraps every tier of the switch (the sensitivity
	// self-check's slowed megaflow tier).
	wrap func(dataplane.Tier) dataplane.Tier
}

var fullSize = params{
	mixFlows:   65536,
	warmBursts: 1 << 15,
	covert:     attack.ThreeField,
	victims:    8,
	minBursts:  1000,
}

// workload is one named benchmark workload: a cache hierarchy, a policy,
// a set-up that brings the caches to the measured state, and the traffic
// the measured loop sends.
type workload struct {
	name  string
	build func(seed uint64, p params) (*rig, error)
}

var workloads = []workload{
	{
		name:  "warm-mix",
		build: buildWarmMix,
	},
	{
		name:  "attack8192",
		build: buildAttack8192,
	},
	{
		name:  "inject",
		build: buildInject,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rig is a switch in its workload's measured state plus the traffic that
// drives it. cycle, when positive, is the number of bursts after which
// the clock jumps by idleJump and rev runs one round.
type rig struct {
	sw    *dataplane.Switch
	rev   *revalidator.Revalidator
	src   source
	now   uint64
	cycle int

	fb  dataplane.FrameBatch
	out []dataplane.Decision
}

func newSwitch(p params, opts ...dataplane.Option) *dataplane.Switch {
	if p.wrap != nil {
		opts = append(opts, dataplane.WithTierWrapper(p.wrap))
	}
	return dataplane.New("dpbench", opts...)
}

// pump sends n bursts from src through the switch, untimed: the set-up
// traffic that warms caches and mints masks.
func (r *rig) pump(src source, n int) {
	for i := 0; i < n; i++ {
		r.fb.Reset()
		src.fill(&r.fb)
		r.out = r.sw.ProcessFrames(r.now, &r.fb, r.out)
	}
}

// buildWarmMix: stock userspace hierarchy with the SMC (EMC, SMC, flat
// megaflow), the victim whitelist plus the two-field attack ACL that no
// frame exercises, and a mix warmed until the caches are hot.
func buildWarmMix(seed uint64, p params) (*rig, error) {
	sw := newSwitch(p, dataplane.WithSMC(cache.SMCConfig{}))
	if err := installPolicy(sw, attack.TwoField()); err != nil {
		return nil, err
	}
	r := &rig{sw: sw, src: newTrainMix(seed, p.mixFlows), now: 1}
	r.pump(r.src, p.warmBursts)
	return r, nil
}

// buildAttack8192: the kernel-datapath model (no EMC, flat megaflow),
// the three-field covert stream sent once to mint its masks, then the
// victim's flows installed behind them.
func buildAttack8192(seed uint64, p params) (*rig, error) {
	sw := newSwitch(p, dataplane.WithoutEMC())
	atk := p.covert()
	if err := installPolicy(sw, atk); err != nil {
		return nil, err
	}
	frames, err := covertFrames(seed, atk)
	if err != nil {
		return nil, err
	}
	r := &rig{sw: sw, src: &cyclic{frames: victimFrames(seed, p.victims), port: victimPort}, now: 1}
	r.pump(&cyclic{frames: frames, port: attackerPort}, len(frames)/burstLen)
	r.pump(r.src, 1)
	return r, nil
}

// buildInject: no EMC, staged megaflow pruning (a mitigation, used so
// the sweep does not hide the slow path), one attached revalidator, and
// one unmeasured cycle of the covert stream into the empty cache.
func buildInject(seed uint64, p params) (*rig, error) {
	sw := newSwitch(p, dataplane.WithoutEMC(), dataplane.WithStagedPruning())
	atk := p.covert()
	if err := installPolicy(sw, atk); err != nil {
		return nil, err
	}
	frames, err := covertFrames(seed, atk)
	if err != nil {
		return nil, err
	}
	if len(frames)%burstLen != 0 {
		return nil, fmt.Errorf("covert stream of %d frames is not whole bursts", len(frames))
	}
	rev := revalidator.New(revalidator.Config{})
	rev.Attach(sw)
	r := &rig{
		sw: sw, rev: rev, now: 1,
		src:   &cyclic{frames: frames, port: attackerPort},
		cycle: len(frames) / burstLen,
	}
	r.pump(r.src, r.cycle)
	r.now += idleJump
	rev.Tick(r.now)
	return r, nil
}

package machine

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// sharedQuantum is the round-robin scheduling quantum of a shared-L3
// run, in instructions: each core advances this far through the batched
// kernel before the next core runs. It approximates fine-grained
// co-execution while keeping whole batches on one core's state; like
// BatchSize it is a fixed model constant, but unlike BatchSize it IS
// observable in the results (it sets the shared-level interleaving), so
// changing it requires bumping the rate key version in core.
const sharedQuantum = 1024

// SharedResult is the outcome of a multi-core shared-L3 run.
type SharedResult struct {
	// PerCore holds each stream's individual result.
	PerCore []*Result
	// AggregateIPC is total instructions over the slowest core's cycles —
	// the throughput view of a SPECrate-style run.
	AggregateIPC float64
	// SharedL3Misses and SharedL3MPKI describe the shared level itself:
	// demand misses summed over all cores, and the same per thousand
	// simulated instructions (the contention scaling-curve metric).
	SharedL3Misses uint64
	SharedL3MPKI   float64
	// BackInvalidations counts private-cache lines invalidated because a
	// shared-L3 eviction displaced their line (inclusive back-
	// invalidation accounting), over the measured window.
	BackInvalidations uint64
}

// RunShared simulates several uop streams on identical cores that share a
// single L3 cache, interleaving round-robin at sharedQuantum granularity
// through the batched kernel. The L3 is inclusive: evicting a shared
// line back-invalidates every core's private copy, and the accounting is
// reported on the result. It models the paper's multi-threaded SPECspeed
// runs and the rate-mode contention scenarios.
func RunShared(cfg Config, srcs []trace.Source, opt Options) (*SharedResult, error) {
	if len(srcs) == 0 {
		return nil, fmt.Errorf("machine: no streams")
	}
	if err := validateRun(cfg, opt, runShared); err != nil {
		return nil, err
	}
	l3 := cache.New(cfg.Hierarchy.L3)
	n := len(srcs)
	buf := batchBuf(opt)
	var times stageTimes
	streams := make([]*stream, n)
	for i := range streams {
		streams[i] = newStream(cfg, l3, srcs[i], buf, opt, &times)
	}
	var backInv uint64
	l3.OnEvict = func(addr uint64) {
		for _, s := range streams {
			h := s.c.hier
			if h.Cache(cache.L1).Invalidate(addr) {
				backInv++
			}
			if h.Cache(cache.L2).Invalidate(addr) {
				backInv++
			}
			if cfg.UnifiedCodePath && h.L1I().Invalidate(addr) {
				backInv++
			}
		}
	}

	// roundRobin advances every core through `total` instructions, one
	// quantum per core per round. In the measured phase each round feeds
	// the rate window metrics (one observation per round, never per uop).
	roundRobin := func(total uint64, st stage) error {
		for done := uint64(0); done < total; {
			q := min(sharedQuantum, total-done)
			roundStart := time.Now()
			for i, s := range streams {
				if err := s.simulate(q, st); err != nil {
					return fmt.Errorf("machine: stream %d: %w", i, err)
				}
			}
			if st == stageSimulate {
				observeWindows("rate", n, time.Since(roundStart))
			}
			done += q
		}
		return nil
	}

	if warm := warmupLength(opt); warm > 0 {
		if err := roundRobin(warm, stageWarmup); err != nil {
			return nil, err
		}
		for _, s := range streams {
			s.c.resetStats()
		}
		backInv = 0
		times.record(opt.Span, stageWarmup)
	}
	if err := roundRobin(opt.Instructions, stageSimulate); err != nil {
		return nil, err
	}
	times.record(opt.Span, stageSimulate)
	opt.Span.SetAttr("rate_copies", n)

	out := &SharedResult{
		PerCore:           make([]*Result, n),
		SharedL3Misses:    l3.Stats().Misses,
		BackInvalidations: backInv,
	}
	maxCycles := 0.0
	totalInstr := uint64(0)
	for i, s := range streams {
		r, err := s.c.finish(cfg, opt, s.c.snap())
		if err != nil {
			return nil, err
		}
		out.PerCore[i] = r
		if t := r.Breakdown.Total(); t > maxCycles {
			maxCycles = t
		}
		totalInstr += r.Events.Instructions
	}
	if maxCycles > 0 {
		out.AggregateIPC = float64(totalInstr) / maxCycles
	}
	if totalInstr > 0 {
		out.SharedL3MPKI = 1000 * float64(out.SharedL3Misses) / float64(totalInstr)
	}
	return out, nil
}

// WorkloadFromModel maps the profile-level ILP/MLP knobs into the pipeline
// model's Workload. The ILP field is only a starting point when the run
// calibrates to a target IPC.
func WorkloadFromModel(mlp float64) pipeline.Workload {
	return pipeline.Workload{ILP: 2, MLP: mlp}
}

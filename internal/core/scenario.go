package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/machine"
	"repro/internal/perf"
	"repro/internal/profile"
)

// Scenario bundles every knob that changes what a campaign measures —
// the fidelity tier, the sampling knob, intra-pair parallelism, the
// rate-mode copy count and the machine topology — into one typed value
// with a canonical string form. The individual Options fields remain
// the storage; Scenario is the API surface that keeps them consistent:
// CLIs parse one -scenario flag, the server accepts one spec object,
// and both land here before normalization.
type Scenario struct {
	// Fidelity selects the simulation tier (Options.Fidelity).
	Fidelity machine.Fidelity
	// Sampling is the systematic-sampling knob (Options.Sampling).
	Sampling machine.Sampling
	// IntraPairWorkers splits each pair across cores (Options.IntraPairWorkers).
	IntraPairWorkers int
	// RateCopies is the rate-mode copy count (Options.RateCopies).
	RateCopies int
	// Topology is the heterogeneous-machine model (Options.Topology).
	Topology machine.Topology
}

// Scenario extracts the measurement scenario from the options.
func (o Options) Scenario() Scenario {
	return Scenario{
		Fidelity:         o.Fidelity,
		Sampling:         o.Sampling,
		IntraPairWorkers: o.IntraPairWorkers,
		RateCopies:       o.RateCopies,
		Topology:         o.Topology,
	}
}

// Apply copies the scenario onto the options, returning the result. It
// does not normalize; Characterize's withDefaults does that, so a
// scenario round-trips through Options exactly like individually set
// fields.
func (s Scenario) Apply(o Options) Options {
	o.Fidelity = s.Fidelity
	o.Sampling = s.Sampling
	o.IntraPairWorkers = s.IntraPairWorkers
	o.RateCopies = s.RateCopies
	o.Topology = s.Topology
	return o
}

// Validate rejects scenarios no tier can honor, with the same rules
// Characterize enforces (validateFidelity over the applied options).
func (s Scenario) Validate() error {
	opt := s.Apply(Options{}).withDefaults()
	return validateFidelity(&opt)
}

// String renders the scenario in the comma-separated token form
// ParseScenario (internal/cliflags) accepts: "exact" for the zero
// value, otherwise only the knobs that differ from it, e.g.
// "sampled,j-pair=8" or "rate=4,topo=4P4E-random". The string is a
// human/CLI surface, not a cache key — keys are derived from the
// normalized Options fields as before.
func (s Scenario) String() string {
	var tok []string
	switch {
	case s.Sampling.Enabled() && s.Sampling != machine.DefaultSampling():
		tok = append(tok, "sampling="+s.Sampling.String())
	case s.Fidelity != machine.FidelityExact || s.Sampling.Enabled():
		tok = append(tok, machine.FidelitySampled.String())
	}
	if s.Fidelity == machine.FidelityAnalytic {
		tok = tok[:0]
		tok = append(tok, machine.FidelityAnalytic.String())
	}
	if s.IntraPairWorkers > 1 {
		tok = append(tok, fmt.Sprintf("j-pair=%d", s.IntraPairWorkers))
	}
	if s.RateCopies > 1 {
		tok = append(tok, fmt.Sprintf("rate=%d", s.RateCopies))
	}
	if s.Topology.Enabled() {
		tok = append(tok, "topo="+s.Topology.String())
	}
	if len(tok) == 0 {
		return machine.FidelityExact.String()
	}
	return strings.Join(tok, ",")
}

// RateStats is the contention accounting of a rate-mode run: the
// shared-level view RunShared measures, carried on Characteristics so
// scaling curves (MPKI and aggregate throughput versus copies) can be
// read straight off campaign results.
type RateStats struct {
	// Copies is the number of co-running workload copies.
	Copies int
	// AggregateIPC is total instructions over the slowest copy's cycles.
	AggregateIPC float64
	// SharedL3MPKI is shared-L3 demand misses per thousand instructions
	// summed over all copies — the contention scaling-curve metric.
	SharedL3MPKI float64
	// BackInvalidations counts private-cache lines invalidated by
	// inclusive shared-L3 evictions over the measured window.
	BackInvalidations uint64
	// PerCopyIPC holds each copy's individual IPC, in copy order.
	PerCopyIPC []float64
}

// RuntimeMode is one branch of a placement runtime distribution: the
// workload landed on one core class with some probability and ran at
// that class's speed.
type RuntimeMode struct {
	// Class is the core class, "P" or "E".
	Class string
	// Weight is the branch probability; weights sum to 1.
	Weight float64
	// ExecSeconds is the modeled full-run time on this class.
	ExecSeconds float64
	// IPC is the modeled per-copy IPC on this class.
	IPC float64
}

// RuntimeDist is the runtime distribution a heterogeneous topology
// induces: under an unaware (random) scheduler the same binary has one
// runtime mode per core class — the multimodal-runtime effect — while
// pinned and aware policies collapse it to a single mode.
type RuntimeDist struct {
	// Topology is the canonical topology string ("4P4E-random").
	Topology string
	// Modes holds the distribution branches in deterministic (P before
	// E) order.
	Modes []RuntimeMode
}

// modeRun is one simulated branch of a scenario: a core class's config,
// its shared-L3 result, and the metrics derived from it.
type modeRun struct {
	mode     machine.Mode
	cfg      machine.Config
	res      *machine.SharedResult
	counters *perf.Counters
	ipc      float64
	execSec  float64
}

// characterizeScenario handles the rate-mode and topology dispatch of
// characterizePairCtx: it runs RateCopies copies of the pair's workload
// on the shared-L3 interleaved kernel (machine.RunShared), once per
// placement mode of the topology, and folds the per-mode results into
// one Characteristics — headline scalars as the placement-weighted
// mixture, Counters/Breakdown from the dominant mode, plus the Rate and
// Runtime extensions.
func characterizeScenario(ctx context.Context, pair profile.Pair, opt Options) (*Characteristics, error) {
	m := pair.Model
	n := max(opt.RateCopies, 1)
	topo := opt.Topology
	modes := []machine.Mode{{Class: "P", Weight: 1}}
	if topo.Enabled() {
		modes = topo.Modes()
	}
	runs := make([]modeRun, 0, len(modes))
	for _, mode := range modes {
		cfg := opt.Machine
		if topo.Enabled() {
			cfg = topo.ClassConfig(opt.Machine, mode.Class)
		}
		// Rate copies each run the whole problem, so the footprint is
		// not divided.
		srcs, prologue, err := copies(m, cfg.Geometry(), n, false)
		if err != nil {
			return nil, err
		}
		res, err := machine.RunShared(cfg, srcs, pairOptions(ctx, m, opt, prologue))
		if err != nil {
			return nil, err
		}
		counters := sumCounters(res)
		if opt.MultiplexSlots > 0 {
			counters = perf.Multiplex(counters, opt.MultiplexSlots, m.Seed)
		}
		// The per-copy IPC (not the summed-counter aggregate) is the
		// mode's rate metric: copies are statistically identical, so the
		// average is a variance reduction, matching CharacterizeThreaded.
		ipc := 0.0
		for _, pc := range res.PerCore {
			ipc += pc.IPC / float64(n)
		}
		runs = append(runs, modeRun{
			mode:     mode,
			cfg:      cfg,
			res:      res,
			counters: counters,
			ipc:      ipc,
			execSec:  execSeconds(m.InstrBillions, ipc, cfg.ClockHz, m.Threads),
		})
	}
	// Aware schedulers collapse the distribution: only the winning class
	// survives, with its weight renormalized to certainty. Which class
	// wins is a measured outcome (usually P for best, E for worst, but
	// the model decides), so selection happens after simulation.
	if topo.Enabled() && (topo.Placement == machine.PlaceBest || topo.Placement == machine.PlaceWorst) {
		win := 0
		for i := 1; i < len(runs); i++ {
			better := runs[i].execSec < runs[win].execSec
			if topo.Placement == machine.PlaceWorst {
				better = runs[i].execSec > runs[win].execSec
			}
			if better {
				win = i
			}
		}
		runs = runs[win : win+1]
		runs[0].mode.Weight = 1
	}
	// The dominant mode (highest weight, P-first tie-break from mode
	// order) lends the result its raw Counters and Breakdown; scalar
	// headline metrics are the weighted mixture across modes.
	dom := 0
	for i := 1; i < len(runs); i++ {
		if runs[i].mode.Weight > runs[dom].mode.Weight {
			dom = i
		}
	}
	c := &Characteristics{
		Pair:          pair,
		InstrBillions: m.InstrBillions,
		RSSMiB:        m.RSSMiB,
		VSZMiB:        m.VSZMiB,
		Counters:      runs[dom].counters,
	}
	for _, r := range runs {
		w := r.mode.Weight
		c.IPC += w * r.ipc
		c.ExecSeconds += w * r.execSec
		c.addMix(r.counters, w)
	}
	for _, pc := range runs[dom].res.PerCore {
		c.addCPIStack(pc)
	}
	if opt.RateCopies > 0 {
		res := runs[dom].res
		rate := &RateStats{
			Copies:            n,
			AggregateIPC:      res.AggregateIPC,
			SharedL3MPKI:      res.SharedL3MPKI,
			BackInvalidations: res.BackInvalidations,
			PerCopyIPC:        make([]float64, len(res.PerCore)),
		}
		for i, pc := range res.PerCore {
			rate.PerCopyIPC[i] = pc.IPC
		}
		c.Rate = rate
	}
	if topo.Enabled() {
		dist := &RuntimeDist{Topology: topo.String()}
		for _, r := range runs {
			dist.Modes = append(dist.Modes, RuntimeMode{
				Class:       r.mode.Class,
				Weight:      r.mode.Weight,
				ExecSeconds: r.execSec,
				IPC:         r.ipc,
			})
		}
		c.Runtime = dist
	}
	return c, nil
}

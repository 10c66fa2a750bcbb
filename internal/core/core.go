// Package core implements the paper's primary contribution: the workload
// characterization pipeline of Sections III-IV. It runs every
// application-input pair's synthetic workload on the simulated machine,
// collects the perf-style counters, and derives the per-pair
// characteristics and per-suite aggregates behind every table and figure.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/analytic"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Options configure a characterization campaign.
type Options struct {
	// Machine is the simulated hardware; the zero value selects the
	// scaled Haswell characterization machine.
	Machine machine.Config
	// Instructions is the measured window per pair (default 300000).
	Instructions uint64
	// Parallelism bounds concurrent pair simulations (default NumCPU).
	Parallelism int
	// IntraPairWorkers, when >1, splits each pair's measured stream into
	// that many windows simulated concurrently and stitched with the
	// frozen-cache warm-state technique (machine.RunParallel) — the knob
	// that makes a single large pair scale past one core where
	// Parallelism maxes out at the number of pairs. Results are an
	// estimate of the sequential run (bit-reproducible for a fixed
	// worker count, tolerance-gated against sequential), so the knob is
	// folded into every result-cache key and can never alias an exact
	// sequential entry. Exact-tier only: the sampled and analytic tiers
	// already re-tile or skip the stream, so the knob normalizes away
	// there instead of erroring — a globally set flag composes with
	// every tier.
	IntraPairWorkers int
	// RateCopies, when >1, characterizes each pair as a rate-mode run:
	// that many copies of the workload on identical cores with private
	// L1/L2 contending on one shared inclusive L3
	// (machine.RunShared), reported with per-copy and aggregate
	// throughput plus shared-level contention stats
	// (Characteristics.Rate). Contention changes result bits, so the
	// copy count is folded into every result-cache key with a versioned
	// suffix and can never alias a single-copy entry. Exact-tier only.
	RateCopies int
	// Topology, when enabled, runs each pair on a heterogeneous
	// P-core/E-core machine under the topology's OS-placement policy;
	// non-deterministic policies (random) yield a runtime distribution
	// (Characteristics.Runtime) instead of a point estimate. Folded into
	// every result-cache key via its canonical string. Exact-tier only;
	// composes with RateCopies (each mode runs the full contention
	// scenario on its class).
	Topology machine.Topology
	// MultiplexSlots, when positive, emulates perf's counter multiplexing
	// with that many hardware counter slots (the paper programs 15
	// events on a 4-slot Haswell PMU): all derived metrics then carry the
	// corresponding scaling noise. Zero reads exact counters.
	MultiplexSlots int
	// Context, when non-nil, cancels the campaign: queued pairs are
	// skipped and in-flight simulations abort at the next cancellation
	// check. Nil means context.Background().
	Context context.Context
	// Cache, when non-nil, memoizes pair results across campaigns keyed
	// by a content hash of (pair identity and model, machine config, run
	// options). A hit skips the simulation and returns the stored
	// Characteristics bit-identical; share one cache across repeated or
	// overlapping campaigns to avoid paying for the same pair twice.
	Cache *sched.Cache
	// Store, when non-nil, is a persistent second cache tier (typically
	// internal/store's content-addressed file store) attached under the
	// result cache: pair results are written through to it as checksummed
	// records and later campaigns — including ones in other processes —
	// are served from it bit-identically. Setting Store without Cache
	// creates a campaign-local memory tier automatically.
	Store sched.Backend
	// Progress, when non-nil, receives a snapshot after each completed
	// pair (pairs done/total, cache hits split by tier, elapsed time).
	// Callbacks are invoked serially.
	Progress func(sched.Progress)
	// BatchSize is the simulation kernel's uop buffer length (0 means
	// machine.DefaultBatchSize). Purely a performance knob: results are
	// bit-identical for every batch size, so it is deliberately excluded
	// from the result-cache key — cached Characteristics stay valid when
	// it changes.
	BatchSize int
	// Sampling, when enabled, runs each pair with SMARTS-style systematic
	// sampling (machine.Options.Sampling): only periodic detailed windows
	// are simulated and the counters are extrapolated, trading a bounded
	// metric error for a multi-x speedup. Unlike BatchSize it changes
	// result bits, so the knob is folded into every result-cache key —
	// sampled and exact results can never alias in the memory or store
	// tiers. Each pair's Characteristics.Sampling then carries the
	// per-metric error estimate.
	Sampling machine.Sampling
	// Fidelity selects the simulation tier: FidelityExact (the zero
	// value) simulates every uop, FidelitySampled is shorthand for the
	// default Sampling knob (an explicit Sampling knob wins), and
	// FidelityAnalytic predicts cache behaviour from a reuse-distance
	// profile instead of simulating it (internal/analytic) — the
	// fastest tier, with error floors gated per metric family.
	// FidelityAnalytic does not compose with Sampling. Like Sampling the
	// tier changes result bits, so non-exact tiers are folded into every
	// result-cache key and can never alias each other or an exact entry.
	Fidelity machine.Fidelity
	// Trace, when non-nil, records the campaign as a span tree — one
	// campaign root, one span per pair with its satisfying cache tier,
	// and per-stage children (fast-forward/warmup/detail) under
	// simulated pairs — renderable as a JSONL run manifest
	// (obs.Trace.WriteManifest). Like BatchSize, Trace never enters any
	// result-cache key: observing a run must not change what is
	// computed or how it is cached.
	Trace *obs.Trace
}

func (o Options) withDefaults() Options {
	if o.Machine.ClockHz == 0 {
		o.Machine = machine.HaswellScaled()
	}
	if o.Instructions == 0 {
		o.Instructions = 300000
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	// Fidelity and Sampling normalize into one canonical pair so every
	// spelling of "sampled" derives identical cache keys: the sampled
	// tier with no explicit knob means the default knob, and an explicit
	// knob under the exact tier means the sampled tier. The invalid
	// analytic+sampling combination is left as is for Characterize to
	// reject.
	if o.Fidelity == machine.FidelitySampled && !o.Sampling.Enabled() {
		o.Sampling = machine.DefaultSampling()
	}
	if o.Sampling.Enabled() && o.Fidelity == machine.FidelityExact {
		o.Fidelity = machine.FidelitySampled
	}
	// A single copy is not a rate run: normalize so "rate=1" and "no
	// rate knob" derive byte-identical cache keys.
	if o.RateCopies <= 1 {
		o.RateCopies = 0
	}
	// Intra-pair parallelism is an exact-tier execution knob; on the
	// other tiers (or at trivial worker counts) it normalizes to zero so
	// cache keys stay byte-stable and the dispatch below never has to
	// reconcile it with sampling. Rate and topology scenarios run on the
	// shared-L3 interleaved kernel, which the window split does not
	// compose with, so the knob normalizes away there too.
	if o.IntraPairWorkers <= 1 || o.Fidelity != machine.FidelityExact ||
		o.RateCopies > 0 || o.Topology.Enabled() {
		o.IntraPairWorkers = 0
	}
	return o
}

// Normalized returns the options with the campaign defaults applied —
// exactly the values CampaignKeys folds into every result-cache key.
// specserved's coordinator forwards them verbatim in the sub-campaign
// specs it scatters, so worker-side keys match the coordinator's
// regardless of each worker's own base flags.
func (o Options) Normalized() Options { return o.withDefaults() }

// Characteristics holds one application-input pair's characterization:
// the row unit of every table and figure in the paper.
type Characteristics struct {
	// Pair identifies the application, input size and input.
	Pair profile.Pair

	// InstrBillions is the nominal full-run instruction count.
	InstrBillions float64
	// IPC is the modeled instructions per cycle.
	IPC float64
	// ExecSeconds is the modeled full-run execution time
	// (nominal instructions / (IPC x clock x threads)).
	ExecSeconds float64

	// Instruction mix (measured from the simulated stream).
	LoadPct, StorePct, BranchPct float64
	// Branch class shares as percentages of all branches.
	CondPct, JumpPct, CallPct, IndirectPct, ReturnPct float64
	// MispredictPct is mispredicted branches per executed branch.
	MispredictPct float64
	// Per-level local load miss rates.
	L1MissPct, L2MissPct, L3MissPct float64
	// Footprint (nominal model values; see DESIGN.md).
	RSSMiB, VSZMiB float64

	// Counters is the raw perf snapshot of the sampled window.
	Counters *perf.Counters
	// Breakdown is the CPI stack of the sampled window.
	Breakdown pipeline.Breakdown
	// Calibrated reports whether the IPC target was reachable.
	Calibrated bool
	// Sampling carries the systematic-sampling knob and per-metric
	// extrapolation-error estimates when the pair was characterized with
	// Options.Sampling; nil for exact runs.
	Sampling *machine.SamplingStats
	// Rate carries the contention accounting of a rate-mode run
	// (Options.RateCopies); nil for single-copy runs. Tagged omitempty
	// so single-copy results keep their pre-rate serialized bytes.
	Rate *RateStats `json:",omitempty"`
	// Runtime carries the placement runtime distribution of a
	// heterogeneous-topology run (Options.Topology); nil otherwise.
	Runtime *RuntimeDist `json:",omitempty"`
}

// MemPct returns loads+stores as a percentage of uops.
func (c *Characteristics) MemPct() float64 { return c.LoadPct + c.StorePct }

// Characterize simulates every pair and returns their characteristics in
// pair order. Pairs run on a bounded worker pool (Options.Parallelism
// workers, not one goroutine per pair); the first simulation error
// cancels queued and in-flight pairs and aborts the campaign, and a
// cancelled Options.Context does the same. With Options.Cache set,
// previously simulated (pair, machine, options) combinations are served
// from the cache bit-identically instead of being re-simulated.
func Characterize(pairs []profile.Pair, opt Options) ([]Characteristics, error) {
	opt = opt.withDefaults()
	res, err := CharacterizeFamily(pairs, opt, []Sibling{{Label: opt.Machine.Name, Machine: opt.Machine}})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// runPair is the campaign's per-pair entry point; tests swap it to
// observe scheduling behaviour without paying for real simulations.
var runPair = characterizePairCtx

// CharacterizePair simulates a single application-input pair.
func CharacterizePair(pair profile.Pair, opt Options) (*Characteristics, error) {
	return characterizePairCtx(context.Background(), pair, opt)
}

// validateFidelity rejects the option combinations no tier can honor.
func validateFidelity(opt *Options) error {
	if opt.Fidelity == machine.FidelityAnalytic && opt.Sampling.Enabled() {
		return fmt.Errorf("core: the analytic fidelity tier does not compose with sampling")
	}
	if opt.RateCopies > 0 || opt.Topology.Enabled() {
		// Sampling skips stream regions and the analytic tier skips the
		// simulation entirely; neither can carry shared-level
		// interleaving, so contention scenarios are exact-tier only.
		if opt.Fidelity != machine.FidelityExact {
			return fmt.Errorf("core: rate and topology scenarios run at exact fidelity only (got %s)", opt.Fidelity)
		}
		if err := opt.Topology.Validate(); err != nil {
			return err
		}
	}
	return nil
}

func characterizePairCtx(ctx context.Context, pair profile.Pair, opt Options) (*Characteristics, error) {
	opt = opt.withDefaults()
	if err := validateFidelity(&opt); err != nil {
		return nil, err
	}
	if opt.RateCopies > 0 || opt.Topology.Enabled() {
		// Multi-copy contention and heterogeneous-topology scenarios run
		// on the shared-L3 interleaved kernel and derive their own
		// Characteristics shape (per-mode aggregation, distributions).
		return characterizeScenario(ctx, pair, opt)
	}
	res, err := characterizePass(ctx, pair, []Options{opt})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// characterizePass simulates one pair's stream once and characterizes
// it under each of opts, which hold normalized single-stream options.
// More than one entry is a shared-pass family (CharacterizeFamily):
// configurations that differ only in L2 and L3 ways, measured together by
// machine.RunFamily.
func characterizePass(ctx context.Context, pair profile.Pair, opts []Options) ([]*Characteristics, error) {
	opt := opts[0]
	m := pair.Model
	gen, err := synth.New(m, opt.Machine.Geometry())
	if err != nil {
		return nil, err
	}
	mopt := pairOptions(ctx, m, opt, gen.Prologue())
	if opt.Sampling.Enabled() {
		// Under sampling the fractional pre-measurement warmup would
		// simulate a quarter of the stream in full and cap the speedup
		// near 2x; the sampled loop's own settle period plus per-window
		// re-warms replace it (see machine.Sampling), so only the
		// generator prologue stays mandatory.
		mopt.Sampling, mopt.WarmupFraction = opt.Sampling, -1
	}
	var res []*machine.Result
	switch {
	case opt.Fidelity == machine.FidelityAnalytic:
		res, err = one(analytic.Run(opt.Machine, gen, mopt))
	case opt.IntraPairWorkers > 1:
		// Every window needs an independently positioned copy of the
		// stream, so the kernel gets the factory, not gen.
		res, err = one(machine.RunParallel(opt.Machine, func() (trace.Source, error) {
			return synth.New(m, opt.Machine.Geometry())
		}, mopt, opt.IntraPairWorkers))
	default:
		cfgs := make([]machine.Config, len(opts))
		for i := range opts {
			cfgs[i] = opts[i].Machine
		}
		res, err = machine.RunFamily(cfgs, gen, mopt)
	}
	if err != nil {
		return nil, err
	}
	out := make([]*Characteristics, len(res))
	for i, r := range res {
		out[i] = pairCharacteristics(pair, opts[i], r)
	}
	return out, nil
}

// one wraps a single-configuration run's result for characterizePass.
func one(r *machine.Result, err error) ([]*machine.Result, error) {
	return []*machine.Result{r}, err
}

// pairCharacteristics derives a single-stream pair's Characteristics
// from its simulation result.
func pairCharacteristics(pair profile.Pair, opt Options, res *machine.Result) *Characteristics {
	m := pair.Model
	counters := res.Counters
	if opt.MultiplexSlots > 0 {
		counters = perf.Multiplex(counters, opt.MultiplexSlots, m.Seed)
	}
	c := &Characteristics{
		Pair:          pair,
		InstrBillions: m.InstrBillions,
		IPC:           counters.IPC(),
		RSSMiB:        m.RSSMiB,
		VSZMiB:        m.VSZMiB,
		Counters:      counters,
		Breakdown:     res.Breakdown,
		Calibrated:    res.Calibrated,
		Sampling:      res.Sampling,
	}
	c.addMix(counters, 1)
	c.ExecSeconds = execSeconds(m.InstrBillions, c.IPC, opt.Machine.ClockHz, m.Threads)
	return c
}

// pairOptions builds the machine options a pair's simulation runs with:
// the measured window, the generator prologue as mandatory warmup, the
// pair's MLP and IPC target, and the campaign's kernel knobs.
func pairOptions(ctx context.Context, m profile.Model, opt Options, prologue uint64) machine.Options {
	return machine.Options{
		Instructions:       opt.Instructions,
		WarmupInstructions: prologue,
		Workload:           machine.WorkloadFromModel(m.MLP),
		CalibrateIPC:       m.TargetIPC,
		Context:            ctx,
		BatchSize:          opt.BatchSize,
		Span:               obs.SpanFromContext(ctx),
	}
}

// addMix accumulates, at weight w, the instruction mix, mispredict and
// miss rates, and branch-class shares a counter snapshot measures. A
// single-stream pair adds its one snapshot at weight 1; a scenario adds
// each placement mode's at its probability.
func (c *Characteristics) addMix(ctr *perf.Counters, w float64) {
	c.LoadPct += w * ctr.LoadPct()
	c.StorePct += w * ctr.StorePct()
	c.BranchPct += w * ctr.BranchPct()
	c.MispredictPct += w * ctr.MispredictPct()
	c.L1MissPct += w * ctr.CacheMissPct(1)
	c.L2MissPct += w * ctr.CacheMissPct(2)
	c.L3MissPct += w * ctr.CacheMissPct(3)
	c.addBranchClasses(ctr, w)
}

// addBranchClasses accumulates, at weight w, each branch class's share
// of all branches.
func (c *Characteristics) addBranchClasses(ctr *perf.Counters, w float64) {
	branches := float64(ctr.MustValue(perf.AllBranches))
	if branches <= 0 {
		return
	}
	pct := func(name string) float64 {
		return 100 * w * float64(ctr.MustValue(name)) / branches
	}
	c.CondPct += pct(perf.CondBranches)
	c.JumpPct += pct(perf.DirectJumps)
	c.CallPct += pct(perf.DirectCalls)
	c.IndirectPct += pct(perf.IndirectJumps)
	c.ReturnPct += pct(perf.Returns)
}

// addCPIStack sums one core's CPI stack into the result and carries its
// calibration outcome.
func (c *Characteristics) addCPIStack(r *machine.Result) {
	c.Breakdown.Base += r.Breakdown.Base
	c.Breakdown.Mispredict += r.Breakdown.Mispredict
	c.Breakdown.L2 += r.Breakdown.L2
	c.Breakdown.L3 += r.Breakdown.L3
	c.Breakdown.Memory += r.Breakdown.Memory
	c.Breakdown.Fetch += r.Breakdown.Fetch
	c.Breakdown.TLB += r.Breakdown.TLB
	c.Calibrated = c.Calibrated || r.Calibrated
}

// copies builds n decorrelated copies of a model's stream: each seeds
// its address stream apart, the way OpenMP threads and rate copies run
// distinct data. Threads share one problem (share true), so each works
// on its slice of the footprint; rate copies each run the whole problem.
// It returns the sources and the longest generator prologue, the warmup
// every copy must cover.
func copies(m profile.Model, geo synth.Geometry, n int, share bool) ([]trace.Source, uint64, error) {
	srcs := make([]trace.Source, n)
	var prologue uint64
	for i := range srcs {
		tm := m
		tm.Seed = m.Seed + uint64(i)*0x9e37
		if share {
			tm.RSSMiB = m.RSSMiB / float64(n)
		}
		gen, err := synth.New(tm, geo)
		if err != nil {
			return nil, 0, err
		}
		prologue = max(prologue, gen.Prologue())
		srcs[i] = gen
	}
	return srcs, prologue, nil
}

// execSeconds models the full-run execution time. A degenerate rate
// (IPC 0, as multiplex noise can produce on uncalibrated runs) yields 0
// rather than +Inf/NaN so downstream tables and subset costs stay finite.
func execSeconds(instrBillions, ipc, clockHz float64, threads int) float64 {
	denom := ipc * clockHz * float64(threads)
	if denom <= 0 || math.IsNaN(denom) || math.IsInf(denom, 0) {
		return 0
	}
	return instrBillions * 1e9 / denom
}

// CharacterizeSuites expands and characterizes a full application list at
// one input size.
func CharacterizeSuites(apps []*profile.Profile, size profile.InputSize, opt Options) ([]Characteristics, error) {
	return Characterize(profile.ExpandSuite(apps, size), opt)
}

// Filter returns the characteristics whose pair satisfies keep.
func Filter(chars []Characteristics, keep func(*Characteristics) bool) []Characteristics {
	var out []Characteristics
	for i := range chars {
		if keep(&chars[i]) {
			out = append(out, chars[i])
		}
	}
	return out
}

// BySuite returns the characteristics belonging to one mini-suite.
func BySuite(chars []Characteristics, s profile.Suite) []Characteristics {
	return Filter(chars, func(c *Characteristics) bool { return c.Pair.App.Suite == s })
}

// Summary is a mean and sample standard deviation, the aggregate form of
// the paper's comparison tables.
type Summary struct {
	Mean, Std float64
	N         int
}

// PerAppMeans averages a metric over each application's inputs first
// (the paper's convention for multi-input applications), returning one
// value per application sorted by name.
func PerAppMeans(chars []Characteristics, pick func(*Characteristics) float64) []float64 {
	byApp := map[string][]float64{}
	for i := range chars {
		name := chars[i].Pair.App.Name
		byApp[name] = append(byApp[name], pick(&chars[i]))
	}
	names := make([]string, 0, len(byApp))
	for n := range byApp {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]float64, 0, len(names))
	for _, n := range names {
		vals := byApp[n]
		s := 0.0
		for _, v := range vals {
			s += v
		}
		out = append(out, s/float64(len(vals)))
	}
	return out
}

// Aggregate summarizes a metric across applications (per-app means, then
// mean and standard deviation across applications).
func Aggregate(chars []Characteristics, pick func(*Characteristics) float64) Summary {
	vals := PerAppMeans(chars, pick)
	n := len(vals)
	if n == 0 {
		return Summary{}
	}
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(n)
	ss := 0.0
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	std := 0.0
	if n > 1 {
		std = math.Sqrt(ss / float64(n-1))
	}
	return Summary{Mean: mean, Std: std, N: n}
}

package machine

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/trace"
)

// Sampling configures SMARTS-style systematic sampling of a run. When
// enabled (Period > 0), the measured stream is processed as repeating
// periods of Period instructions: the stream is fast-forwarded through
// the source's trace.Skipper capability (or drained, for sources that
// cannot skip), then WarmupLen instructions are simulated to re-warm the
// caches, TLB and branch predictor with their counters discarded, then
// DetailLen instructions are simulated in full detail and counted. The
// counted windows are scaled back up to the full stream length, and the
// inter-window variance yields a per-metric extrapolation-error estimate
// (Result.Sampling).
//
// Sampling is a fidelity knob, not a free lunch: results are an
// estimate of the exact run, not bit-identical to it. The tolerance
// tests bound the error at the default knob to <=2% relative on the
// headline rates (with a small absolute floor where a rate's event
// population is too rare for a relative bound to be meaningful), and
// sampled results are keyed separately from exact ones in every cache
// tier. Workflows that require exact results — golden-table
// regeneration, equivalence testing — must not enable it.
type Sampling struct {
	// Period is the sampling period in instructions; 0 disables sampling.
	Period uint64
	// DetailLen is the counted detailed-simulation window per period.
	DetailLen uint64
	// WarmupLen is the uncounted microarchitectural re-warm window
	// simulated immediately before each detailed window.
	WarmupLen uint64
}

// DefaultSampling returns the default fidelity knob: an 8Ki-instruction
// detailed window preceded by an 8Ki re-warm window every 256Ki
// instructions (~3% counted), tuned (EXPERIMENTS.md) so the headline
// metrics stay within the tolerance-test bounds while the skipped ~94%
// of the stream buys a >=3x wall-clock speedup on multi-million
// instruction runs. Streams shorter than two periods (512Ki) fall back
// to exact simulation — sampling is a long-run knob.
func DefaultSampling() Sampling {
	return Sampling{Period: 262144, DetailLen: 8192, WarmupLen: 8192}
}

// ParseSampling parses the sampling-knob syntax shared by the cmd tools
// and the server API: "off" (or "", "none", "0") disables sampling, "on"
// or "default" selects DefaultSampling, and "PERIOD/DETAIL/WARMUP"
// (instruction counts, e.g. "262144/8192/8192") sets the knob
// explicitly.
func ParseSampling(s string) (Sampling, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "off", "none", "0":
		return Sampling{}, nil
	case "on", "default":
		return DefaultSampling(), nil
	}
	parts := strings.Split(s, "/")
	if len(parts) != 3 {
		return Sampling{}, fmt.Errorf("bad sampling %q: want off, default, or PERIOD/DETAIL/WARMUP", s)
	}
	vals := make([]uint64, 3)
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return Sampling{}, fmt.Errorf("bad sampling %q: %v", s, err)
		}
		vals[i] = v
	}
	knob := Sampling{Period: vals[0], DetailLen: vals[1], WarmupLen: vals[2]}
	if err := knob.Validate(); err != nil {
		return Sampling{}, err
	}
	if !knob.Enabled() {
		return Sampling{}, fmt.Errorf("bad sampling %q: zero period (use \"off\" to disable)", s)
	}
	return knob, nil
}

// warmTailFactor scales the functionally-warmed tail of each sampling
// gap, in units of WarmupLen. Warming the whole gap keeps the predictor
// exact but costs ~30-40% extra on the fast-forward path; the tables'
// hot entries retrain within a few thousand branches, so a bounded tail
// recovers nearly all of the accuracy at a fraction of the cost (see
// EXPERIMENTS.md for the sweep). A variable only so the tuning
// experiment can sweep it; not part of the public knob.
var warmTailFactor = uint64(8)

// ageCoeff and agePow scale the gap-turnover aging of the big caches
// (L2, L3; see stream.gapAging) as alpha = ageCoeff * missRate^agePow
// of the cache's observed fill rate. One gap fill displaces one victim only
// when the victim would not have been re-touched during the gap; the
// thrashier the cache, the larger the share of its content that is dead
// on arrival, and the power law is the simplest shape that matched the
// per-family bias sweep (EXPERIMENTS.md). The L1s age at the full fill
// rate — their reuse horizon is far shorter than any practical gap, so
// their turnover really is complete. Variables only so the tuning
// experiment can sweep them; not part of the public knob.
var (
	ageCoeff = 0.4
	agePow   = 1.5
)

// jitterSeed seeds the fixed splitmix64 stream that jitters each
// period's window offset (see runSampled). A package variable only so
// the tuning experiment can re-draw the placement and separate
// window-placement variance from model bias; sampled runs are
// bit-reproducible because it is never varied at runtime.
var jitterSeed = uint64(0x9E3779B97F4A7C15)

// Enabled reports whether the knob turns sampling on.
func (s Sampling) Enabled() bool { return s.Period > 0 }

// Validate reports knob errors. The zero value (disabled) is valid.
func (s Sampling) Validate() error {
	if s.Period == 0 {
		if s.DetailLen != 0 || s.WarmupLen != 0 {
			return fmt.Errorf("machine: sampling windows set but period is zero")
		}
		return nil
	}
	if s.DetailLen == 0 {
		return fmt.Errorf("machine: sampling needs a positive detail window")
	}
	if s.DetailLen > s.Period || s.WarmupLen > s.Period-s.DetailLen {
		return fmt.Errorf("machine: sampling windows (%d detail + %d warmup) exceed period %d",
			s.DetailLen, s.WarmupLen, s.Period)
	}
	return nil
}

// String renders the knob in the "period/detail/warmup" form
// ParseSampling accepts.
func (s Sampling) String() string {
	if !s.Enabled() {
		return "off"
	}
	return fmt.Sprintf("%d/%d/%d", s.Period, s.DetailLen, s.WarmupLen)
}

// SamplingStats records how a sampled run was measured and how far its
// extrapolated metrics are expected to stray from an exact run. The
// error fields are relative standard errors estimated from the
// variance of the per-window metric values — 0 means "not estimable"
// (fewer than two windows carried the metric's events), not certainty.
type SamplingStats struct {
	// Period, DetailLen, WarmupLen echo the knob the run used.
	Period, DetailLen, WarmupLen uint64
	// Windows is the number of counted detailed windows. Zero means the
	// run was too short to sample (under two periods) and ran exact.
	Windows int
	// SampledFraction is the counted fraction of the measured stream.
	SampledFraction float64
	// Relative standard errors of the headline metrics.
	IPCRelErr, L1RelErr, L2RelErr, L3RelErr, MispredictRelErr float64
}

// counterSnap is a cumulative snapshot of every statistic finish derives
// counters from. The sampled run loop snapshots around each detailed
// window and aggregates the diffs; the exact paths snapshot once at the
// end.
type counterSnap struct {
	kinds       [trace.NumKinds]uint64
	loadLevel   [4]uint64
	dataLevel   [4]uint64
	fetchMisses uint64
	walks       uint64
	branch      branch.Stats
}

// snap captures the core's current cumulative statistics.
func (c *core) snap() counterSnap {
	return counterSnap{
		kinds:       c.kinds,
		loadLevel:   c.loadLevel,
		dataLevel:   c.dataLevel,
		fetchMisses: c.hier.L1I().Stats().Misses,
		walks:       c.tlb.Walks(),
		branch:      c.unit.Stats(),
	}
}

// each applies f to every count of s, paired with the same count of o.
func (s *counterSnap) each(o *counterSnap, f func(v *uint64, ov uint64)) {
	for i := range s.kinds {
		f(&s.kinds[i], o.kinds[i])
	}
	for i := range s.loadLevel {
		f(&s.loadLevel[i], o.loadLevel[i])
		f(&s.dataLevel[i], o.dataLevel[i])
	}
	f(&s.fetchMisses, o.fetchMisses)
	f(&s.walks, o.walks)
	for i := range s.branch.Executed {
		f(&s.branch.Executed[i], o.branch.Executed[i])
		f(&s.branch.Mispredicted[i], o.branch.Mispredicted[i])
	}
}

// sub returns the statistics accumulated between prev and s.
func (s counterSnap) sub(prev counterSnap) counterSnap {
	s.each(&prev, func(v *uint64, ov uint64) { *v -= ov })
	return s
}

// add accumulates w into s.
func (s *counterSnap) add(w counterSnap) {
	s.each(&w, func(v *uint64, ov uint64) { *v += ov })
}

// instructions returns the snapshot's total instruction count.
func (s counterSnap) instructions() uint64 {
	n := uint64(0)
	for _, k := range s.kinds {
		n += k
	}
	return n
}

// scaled extrapolates every count by ratio (rounding to nearest), the
// step that stretches the sampled windows back over the full stream.
func (s counterSnap) scaled(ratio float64) counterSnap {
	s.each(&s, func(v *uint64, _ uint64) { *v = uint64(float64(*v)*ratio + 0.5) })
	return s
}

// runSampled is the systematic-sampling run loop. The stream arrives
// post-warmup; a settle window is then simulated in full with its
// counters discarded (the global warmup under sampling is typically
// just the generator prologue, a branch-free load sweep, so recency
// and predictor state still need real stream behaviour before the
// first counted window). Every subsequent period is skip -> warm ->
// detail. During a skip caches and TLB are frozen — nothing ages or
// evicts, which stays near-correct because a gap turns over only a few
// percent of L2/L3 content — while branch state is kept functionally
// warm (trace.SkipRecordsWarm feeding Unit.Warm): predictor state is
// phase-sensitive, and freezing it would bias every counted window's
// mispredict rate upward. The warm window then re-aligns the
// small-horizon state (L1, TLB recency), and the dominant residual
// error is statistical, which the inter-window variance estimate
// captures. Run sends streams under two periods down the exact path
// instead: they have no room for a settle window plus a counted window.
func (s *stream) runSampled(cfg Config) (*Result, error) {
	opt := s.opt
	sp := opt.Sampling
	total := opt.Instructions

	// The settle window needs to cover the small-horizon state (L1 and
	// the predictor's hot entries); the big structures fill cumulatively
	// across the whole run — detailed windows insert, skips freeze — so
	// stretching the settle to a full period would buy accuracy nothing
	// and cost wall-clock on large-period knobs. Its fills seed the
	// meter that sizes the gap aging (see stream.gapAging); afterwards
	// only detailed windows feed it — post-gap warmup windows refill the
	// small caches at far above the steady-state rate and would inflate
	// it.
	settle := min(max(2*sp.WarmupLen, 8192), sp.Period)
	if _, err := s.count(settle, stageWarmup); err != nil {
		return nil, err
	}
	done := settle
	skipLen := sp.Period - sp.DetailLen - sp.WarmupLen
	warmTail := sp.WarmupLen * warmTailFactor

	// The warm+detail block lands at a jittered offset within each
	// period rather than a fixed phase. The synthetic streams have their
	// own periodicities (the round-robin reuse pools cycle at working-set
	// rates commensurate with practical sampling periods), and strict
	// systematic placement aliases with them — the counted windows then
	// observe one phase of the cycle and the extrapolation is biased no
	// matter how long the warmup is. The offset sequence is a fixed-seed
	// splitmix64 stream, so sampled runs stay bit-reproducible.
	jitter := jitterSeed
	var windows []counterSnap
	var agg counterSnap
	detailed := uint64(0)
	carry := uint64(0)
	for done < total {
		jitter += 0x9E3779B97F4A7C15
		z := jitter
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		pre := uint64(0)
		if skipLen > 0 {
			// Multiply-shift draw of the pre-block skip in [0, skipLen].
			if skipLen < 1<<32 {
				pre = (z >> 32) * (skipLen + 1) >> 32
			} else {
				pre = z % (skipLen + 1)
			}
		}
		// The gap before this period's warm+detail block is the tail of
		// the previous period plus this period's jittered offset. Only its
		// last warmTail instructions keep the predictor functionally warm;
		// the head is a plain skip — predictor state written further back
		// than that horizon is either refreshed by the tail anyway (hot
		// sites) or too cold-tail to surface in a detailed window.
		gap := min(carry+pre, total-done)
		carry = skipLen - pre
		if gap > 0 {
			age, _ := s.gapAging(gap, false)
			if err := s.bridge(gap, min(warmTail, gap), age); err != nil {
				return nil, err
			}
			done += gap
		}
		w := min(sp.WarmupLen, total-done)
		if err := s.simulate(w, stageWarmup); err != nil {
			return nil, err
		}
		done += w
		if d := min(sp.DetailLen, total-done); d > 0 {
			t0 := s.times[stageDetail]
			win, err := s.count(d, stageDetail)
			if err != nil {
				return nil, err
			}
			observeWindows("sampled", 1, s.times[stageDetail]-t0)
			windows = append(windows, win)
			agg.add(win)
			detailed += d
			done += d
		}
	}
	s.times.record(opt.Span, stageFastForward, stageWarmup, stageDetail)
	opt.Span.SetAttr("windows", len(windows))
	if detailed == 0 {
		// Unreachable once total >= 2*Period and DetailLen > 0, but a
		// zero division would be silent garbage; fail loudly instead.
		return nil, fmt.Errorf("machine: sampling produced no detailed windows")
	}

	res, err := s.c.finish(cfg, opt, agg.scaled(float64(total)/float64(detailed)))
	if err != nil {
		return nil, err
	}
	stats := &SamplingStats{
		Period: sp.Period, DetailLen: sp.DetailLen, WarmupLen: sp.WarmupLen,
		Windows: len(windows), SampledFraction: float64(detailed) / float64(total),
	}
	// Per-window IPC runs the interval model at the run's (possibly
	// solved) ILP, uncalibrated.
	winOpt := opt
	winOpt.Workload.ILP, winOpt.CalibrateIPC = res.ILP, 0
	estimateErrors(stats, cfg, winOpt, windows)
	res.Sampling = stats
	return res, nil
}

// estimateErrors fills the per-metric relative standard errors from the
// spread of the per-window metric values: for k windows the scaled
// estimate is (up to rounding) the mean of the window values, so its
// standard error is std/sqrt(k), reported relative to the mean. Windows
// without the metric's events are excluded; a metric carried by fewer
// than two windows reports 0 (not estimable).
func estimateErrors(stats *SamplingStats, cfg Config, opt Options, windows []counterSnap) {
	var ipc, l1, l2, l3, misp []float64
	for i := range windows {
		win := &windows[i]
		if win.instructions() > 0 {
			if r, err := win.derive(cfg, opt, 0, 0); err == nil {
				ipc = append(ipc, r.IPC)
			}
		}
		hitL2, hitL3, hitMem := win.loadLevel[cache.HitL2], win.loadLevel[cache.HitL3], win.loadLevel[cache.HitMemory]
		l1Miss := hitL2 + hitL3 + hitMem
		l1 = appendRate(l1, l1Miss, win.loadLevel[cache.HitL1]+l1Miss)
		l2 = appendRate(l2, hitL3+hitMem, l1Miss)
		l3 = appendRate(l3, hitMem, hitL3+hitMem)
		exec, mp := win.branch.Total()
		misp = appendRate(misp, mp, exec)
	}
	stats.IPCRelErr = relStdErr(ipc)
	stats.L1RelErr = relStdErr(l1)
	stats.L2RelErr = relStdErr(l2)
	stats.L3RelErr = relStdErr(l3)
	stats.MispredictRelErr = relStdErr(misp)
}

func appendRate(dst []float64, num, den uint64) []float64 {
	if den == 0 {
		return dst
	}
	return append(dst, float64(num)/float64(den))
}

// relStdErr returns std(vals)/sqrt(len)/mean(vals), or 0 when that is
// not estimable (fewer than two values, or a zero mean).
func relStdErr(vals []float64) float64 {
	k := len(vals)
	if k < 2 {
		return 0
	}
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(k)
	if mean == 0 {
		return 0
	}
	ss := 0.0
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(k-1))
	return std / math.Sqrt(float64(k)) / mean
}

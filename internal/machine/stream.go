package machine

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/trace"
)

// This file holds the per-stream runner every batched entry point is
// built from. Run, the sampled loop, each RunParallel window and each
// RunShared core own only their schedule — which windows to simulate,
// skip or count, and in what order — and make their calls on a stream:
// simulate and count run the batched kernel, bridge carries the stream
// across a frozen-cache gap, and the stage clock accounts the wall time.
// RunReference stays outside it as the executable reference.

// runKind names an entry point, for the option rules validateRun
// applies to it.
type runKind int

const (
	runSequential runKind = iota
	runFamily
	runReference
	runParallel
	runShared
)

// validateRun is the one place that decides which options each entry
// point accepts. Sampling composes only with the sequential batched
// run of one machine: the reference kernel is the exact-run
// specification, a multi-machine family pass and parallel windows
// count whole streams, and skipping one stream of a shared-L3 run would
// still age the shared L3 through the others.
func validateRun(cfg Config, opt Options, kind runKind) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if opt.Instructions == 0 {
		return fmt.Errorf("machine: zero-length run")
	}
	if err := opt.Sampling.Validate(); err != nil {
		return err
	}
	if !opt.Sampling.Enabled() {
		return nil
	}
	switch kind {
	case runReference:
		return fmt.Errorf("machine: sampling requires the batched kernel (use Run)")
	case runFamily:
		return fmt.Errorf("machine: sampling does not compose with a multi-configuration pass")
	case runParallel:
		return fmt.Errorf("machine: sampling does not compose with parallel windowed simulation (both re-tile the measured stream)")
	case runShared:
		return fmt.Errorf("machine: sampling is not supported for shared-L3 runs")
	}
	return nil
}

// batchBuf allocates a batch buffer of the options' batch size.
func batchBuf(opt Options) []trace.Uop {
	bs := opt.BatchSize
	if bs <= 0 {
		bs = DefaultBatchSize
	}
	return make([]trace.Uop, bs)
}

// stage indexes the wall-time buckets a run accumulates. "simulate" is
// an exact run's measured window; windowed runs split into fast-forward
// (skip work), warmup (settle and re-warm windows) and detail (the
// counted windows).
type stage int

const (
	stageFastForward stage = iota
	stageWarmup
	stageDetail
	stageSimulate
	numStages
)

var stageNames = [numStages]string{"fast-forward", "warmup", "detail", "simulate"}

// stageTimes accumulates one run's wall time per stage. Timing happens
// at window boundaries only, never per uop, so the kernel loop is
// untouched.
type stageTimes [numStages]time.Duration

// record observes each listed stage's accumulated time into its
// histogram and, when a span is attached, as a finished stage child
// span, then clears it.
func (t *stageTimes) record(span *obs.Span, stages ...stage) {
	for _, st := range stages {
		metStageSeconds[st].ObserveDuration(t[st])
		span.Stage(stageNames[st], t[st])
		t[st] = 0
	}
}

// observeWindows feeds n windows that took d of wall time into the
// per-source window metrics.
func observeWindows(source string, n int, d time.Duration) {
	metWindowSeconds[source].ObserveDuration(d)
	metPairWindows[source].Add(uint64(n))
}

// stream is one uop stream on one simulated core: the batch source,
// the buffer it is read through, the position reached, and the fill
// meter the gap bridge sizes cache aging from.
type stream struct {
	c   *core
	src trace.BatchSource
	buf []trace.Uop
	opt Options
	// pos counts the records consumed from the source, simulated or
	// skipped; it positions the exhaustion error.
	pos uint64
	// caches are the levels the gap bridge ages. fills and fillInstr
	// are the fill meter: the fills each cache took during the counted
	// windows, and the instructions those windows simulated.
	caches    [4]*cache.Cache
	fills     [4]uint64
	fillInstr uint64
	times     *stageTimes
}

// newStream builds a core for src and readies it for the batched
// kernel. A nil l3 gives the core a private hierarchy with the L1 set
// memos enabled under an idempotent-touch policy. A non-nil l3 is
// shared with other streams: a shared-L3 eviction can back-invalidate a
// privately cached line between any two accesses, so the hit-armed
// soundness argument behind the register dedups and set memos does not
// hold, and both stay off.
func newStream(cfg Config, l3 *cache.Cache, src trace.Source, buf []trace.Uop, opt Options, times *stageTimes) *stream {
	var hier *cache.Hierarchy
	if l3 == nil {
		hier = cache.NewHierarchy(cfg.Hierarchy)
	} else {
		hier = cache.NewShared(cfg.Hierarchy, l3)
	}
	c := newCore(cfg, hier)
	if l3 != nil {
		c.fetchDedup, c.dataDedup = false, false
	}
	if c.fetchDedup {
		hier.L1I().EnableFetchMemo()
	}
	if c.dataDedup {
		hier.Cache(cache.L1).EnableFetchMemo()
	}
	return &stream{
		c: c, src: trace.AsBatch(src), buf: buf, opt: opt, times: times,
		caches: [4]*cache.Cache{hier.L1I(), hier.Cache(cache.L1), hier.Cache(cache.L2), hier.Cache(cache.L3)},
	}
}

func (s *stream) exhausted() error {
	return fmt.Errorf("machine: source exhausted after %d instructions", s.pos)
}

// skipChunkLen bounds one uninterrupted skip so a cancelled context is
// noticed within a bounded amount of fast-forward work.
const skipChunkLen = 1 << 20

// charge adds the wall time since start to stage st.
func (s *stream) charge(st stage, start time.Time) { s.times[st] += time.Since(start) }

// simulate runs n instructions through the batched kernel, charging the
// wall time to st.
func (s *stream) simulate(n uint64, st stage) error {
	if n == 0 {
		return nil
	}
	defer s.charge(st, time.Now())
	done, err := s.c.runWindow(s.src, s.buf, n, s.opt.Context)
	s.pos += done
	if err != nil {
		return err
	}
	if done < n {
		return s.exhausted()
	}
	return nil
}

// count simulates a window of n instructions and returns the counters
// it accumulated. Its cache fills feed the fill meter.
func (s *stream) count(n uint64, st stage) (counterSnap, error) {
	var f0 [4]uint64
	for i, ch := range s.caches {
		f0[i] = ch.Fills()
	}
	before := s.c.snap()
	err := s.simulate(n, st)
	for i, ch := range s.caches {
		s.fills[i] += ch.Fills() - f0[i]
	}
	s.fillInstr += n
	return s.c.snap().sub(before), err
}

// warmup simulates the run's uncounted warmup and clears the counters.
func (s *stream) warmup(n uint64) error {
	if err := s.simulate(n, stageWarmup); err != nil {
		return err
	}
	s.c.resetStats()
	return nil
}

// gapAging estimates how many victims a frozen gap of n instructions
// would have displaced from each cache: alpha times the metered fill
// rate times n, where alpha is 1 for the L1s (their reuse horizon is far
// shorter than any gap, so their turnover is complete) and
// ageCoeff·mr^agePow of the observed miss rate for L2/L3. A sampling
// gap is short against every cache (sized false). A parallel window's
// gap can span most of the stream (sized true): each estimate is capped
// at the cache's capacity, and rewarm is the window that refills the
// hungriest cache at its fill rate, floored at minParallelWarmup and
// capped by n. The two forms round differently, and each keeps the
// expression order its pinned results were computed with.
func (s *stream) gapAging(n uint64, sized bool) (age [4]int, rewarm uint64) {
	if sized {
		rewarm = min(minParallelWarmup, n)
	}
	if n == 0 || s.fillInstr == 0 {
		return age, rewarm
	}
	for i, ch := range s.caches {
		alpha := 1.0
		if i >= 2 {
			alpha = ageCoeff * math.Pow(ch.Stats().MissRate(), agePow)
		}
		if !sized {
			age[i] = int(alpha * float64(s.fills[i]) / float64(s.fillInstr) * float64(n))
			continue
		}
		f := float64(s.fills[i]) / float64(s.fillInstr)
		if f <= 0 {
			continue
		}
		evict := alpha * f * float64(n)
		if lines := float64(ch.Lines()); evict > lines {
			evict = lines
		}
		age[i] = int(evict)
		if need := uint64(evict / f); need > rewarm {
			rewarm = need
		}
	}
	if sized {
		rewarm = min(rewarm, n)
	}
	return age, rewarm
}

// bridge carries the stream across n records with the caches frozen.
// It ages each cache by age[i] replacement victims, the content the
// skipped stretch would have displaced; cold-skips the head, polling
// for cancellation; and skips the last tail records warm, feeding their
// branches to the predictor so it stays functionally warm. The time is
// charged to fast-forward.
func (s *stream) bridge(n, tail uint64, age [4]int) error {
	defer s.charge(stageFastForward, time.Now())
	for i, ch := range s.caches {
		ch.Age(age[i])
	}
	// The cold head is skipped in chunks, polling for cancellation in
	// between: SkipRecords itself never polls, and a native skip can
	// cover millions of records per call.
	for cold := n - tail; cold > 0; {
		if ctx := s.opt.Context; ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		step := min(cold, skipChunkLen)
		got := trace.SkipRecords(s.src, s.buf, step)
		s.pos += got
		if got < step {
			return s.exhausted()
		}
		cold -= step
	}
	if tail > 0 {
		done := trace.SkipRecordsWarm(s.src, s.buf, tail, s.c.unit.Warm)
		s.pos += done
		if done < tail {
			return s.exhausted()
		}
	}
	return nil
}

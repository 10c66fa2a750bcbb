package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/analytic"
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/rdist"
	"repro/internal/synth"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// replayPairs are the kernel replay workloads: an L1-resident pair and
// two memory-bound ones, keyed by the metric suffix they report under.
var replayPairs = []struct{ suffix, app string }{
	{"namd", "508.namd_r"},
	{"mcf", "505.mcf_r"},
	{"lbm", "519.lbm_r"},
}

// Kernel layers in attribution order. Each is timed per batch at its
// boundary in a replay that mirrors machine.Run's batched kernel call
// for call: the time.Now pairs cost a few tens of nanoseconds per
// 4096-uop batch, so they do not perturb the layers they bracket.
const (
	laySynth  = iota // Generator.NextBatch
	layFetch         // L1I: register dedup, MemoHit, AccessHot, RecordHits, kind lists
	layBranch        // Unit.Resolve
	layL1D           // L1D: register dedup, MemoHit, AccessHot, RecordHits
	layL2L3          // Hierarchy.DataHotMiss
	layTLB           // TLB.Translate, RecordL1Hits
	layMem           // Footprint.Touch
	numLayers
)

var layerNames = [numLayers]string{
	"synth.ns_per_uop", "cache.l1i_fetch_ns", "branch.resolve_ns",
	"cache.l1d_access_ns", "cache.l2l3_miss_ns", "tlb.translate_ns", "mem.touch_ns",
}

// replayResult is one replay of one pair.
type replayResult struct {
	uops   uint64 // warmup and measured window
	layer  [numLayers]time.Duration
	derive time.Duration
	whole  time.Duration // machine.Run on the same stream
	counts machine.Counts
	// same reports whether the replay's derived counters are
	// byte-identical to machine.Run's: the proof that the replay drives
	// exactly the calls the kernel makes.
	same bool
}

func pairByApp(size profile.InputSize, app string) (profile.Pair, error) {
	for _, p := range profile.ExpandSuite(profile.CPU2017(), size) {
		if p.App.Name == app && (p.Input == "" || p.Input == "in1") {
			return p, nil
		}
	}
	return profile.Pair{}, fmt.Errorf("no %s pair for %s", size, app)
}

// kernelOptions are the machine options core.Characterize uses for an
// exact pair.
func kernelOptions(m profile.Model, gen *synth.Generator, n uint64) machine.Options {
	return machine.Options{
		Instructions:       n,
		WarmupInstructions: gen.Prologue(),
		Workload:           pipeline.Workload{ILP: 2, MLP: m.MLP},
		CalibrateIPC:       m.TargetIPC,
	}
}

// replayKernel runs one pair through machine.Run and through a layer-timed
// replay of the same batched kernel, returning both timings. The two run
// back to back, tens of milliseconds apart, in the order wholeFirst
// says: the host's speed drifts over seconds, so their ratio is nearly
// free of it, and alternating the order cancels what is left.
func replayKernel(cfg machine.Config, pair profile.Pair, n uint64, wholeFirst bool) (*replayResult, error) {
	res := &replayResult{}
	// Collect first, so neither side pays for earlier garbage.
	runtime.GC()
	var want *machine.Result
	whole := func() error {
		gen, err := synth.New(pair.Model, cfg.Geometry())
		if err != nil {
			return err
		}
		start := time.Now()
		want, err = machine.Run(cfg, gen, kernelOptions(pair.Model, gen, n))
		res.whole = time.Since(start)
		return err
	}
	if wholeFirst {
		if err := whole(); err != nil {
			return nil, err
		}
	}
	gen, err := synth.New(pair.Model, cfg.Geometry())
	if err != nil {
		return nil, err
	}
	opt := kernelOptions(pair.Model, gen, n)
	// Layer times cover the warmup too, as machine.Run's wall time does;
	// only the statistics reset after it.
	r := newReplay(cfg)
	warm := opt.WarmupInstructions + n/4 // machine's default 0.25 warmup fraction
	r.window(gen, warm)
	r.resetStats()
	r.window(gen, n)
	res.counts = r.counts()
	start := time.Now()
	got, err := machine.DeriveResult(cfg, opt, res.counts)
	res.derive = time.Since(start)
	if err != nil {
		return nil, err
	}
	if !wholeFirst {
		if err := whole(); err != nil {
			return nil, err
		}
	}
	res.uops, res.layer = warm+n, r.layer
	a, _ := json.Marshal(want.Counters)
	b, _ := json.Marshal(got.Counters)
	res.same = bytes.Equal(a, b) && want.IPC == got.IPC
	return res, nil
}

// total is the replay's attributed time: every layer plus the derive.
func (x *replayResult) total() time.Duration {
	sum := x.derive
	for _, d := range x.layer {
		sum += d
	}
	return sum
}

// replay is the batched kernel of machine.Run (the non-unified split
// sweeps) rebuilt from the exported hot-path calls, with a timer at each
// layer boundary.
type replay struct {
	hier      *cache.Hierarchy
	l1i, l1d  *cache.Cache
	unit      *branch.Unit
	tlb       *tlb.TLB
	foot      *mem.Footprint
	shift     uint
	dataPage  uint64
	kinds     [trace.NumKinds]uint64
	loadLevel [4]uint64
	dataLevel [4]uint64

	buf     []trace.Uop
	memAddr []uint64
	brIdx   []uint32
	miss    []uint64
	pages   []uint64
	layer   [numLayers]time.Duration
}

const storeBit = uint64(1) << 63

var (
	kindIsMem    = [trace.NumKinds]uint32{trace.KindLoad: 1, trace.KindStore: 1}
	kindIsBranch = [trace.NumKinds]uint32{trace.KindBranch: 1}
	kindStoreBit = [trace.NumKinds]uint64{trace.KindStore: storeBit}
	accessBySBit = [2]cache.AccessKind{cache.AccessLoad, cache.AccessStore}
)

func newReplay(cfg machine.Config) *replay {
	hier := cache.NewHierarchy(cfg.Hierarchy)
	hier.L1I().EnableFetchMemo()
	hier.Cache(cache.L1).EnableFetchMemo()
	newPred := cfg.NewPredictor
	if newPred == nil {
		newPred = func() branch.Predictor { return branch.NewTournament(14) }
	}
	shift := uint(0)
	for 1<<shift < cfg.Hierarchy.L1D.LineBytes {
		shift++
	}
	const bs = machine.DefaultBatchSize
	return &replay{
		hier: hier, l1i: hier.L1I(), l1d: hier.Cache(cache.L1),
		unit:     branch.NewUnit(newPred(), cfg.BTBBits, cfg.RASDepth),
		tlb:      tlb.NewHaswell(),
		foot:     mem.NewFootprint(0, 1<<30, 0),
		shift:    shift,
		dataPage: ^uint64(0),
		buf:      make([]trace.Uop, bs),
		memAddr:  make([]uint64, bs),
		brIdx:    make([]uint32, bs),
		miss:     make([]uint64, bs),
		pages:    make([]uint64, bs),
	}
}

func (r *replay) resetStats() {
	r.hier.ResetStats()
	r.unit.ResetStats()
	r.tlb.ResetStats()
	r.kinds = [trace.NumKinds]uint64{}
	r.loadLevel = [4]uint64{}
	r.dataLevel = [4]uint64{}
}

func (r *replay) counts() machine.Counts {
	return machine.Counts{
		Kinds: r.kinds, LoadLevel: r.loadLevel, DataLevel: r.dataLevel,
		FetchMisses: r.l1i.Stats().Misses, Walks: r.tlb.Walks(),
		Branch: r.unit.Stats(), RSSBytes: r.foot.PeakRSS(), VSZBytes: r.foot.VSZ(),
	}
}

// window replays n uops in DefaultBatchSize batches, as machine.Run does.
func (r *replay) window(src trace.BatchSource, n uint64) {
	for done := uint64(0); done < n; {
		want := n - done
		if want > uint64(len(r.buf)) {
			want = uint64(len(r.buf))
		}
		t0 := time.Now()
		got := src.NextBatch(r.buf[:want])
		t1 := time.Now()
		if got == 0 {
			return
		}
		buf := r.buf[:got]
		nm, nb := r.fetch(buf)
		t2 := time.Now()
		for _, i := range r.brIdx[:nb] {
			r.unit.Resolve(&buf[i])
		}
		t3 := time.Now()
		nMiss := r.l1dPass(nm)
		t4 := time.Now()
		r.l2l3Pass(nMiss)
		t5 := time.Now()
		nPages := r.tlbPass(nm)
		t6 := time.Now()
		for _, a := range r.pages[:nPages] {
			r.foot.Touch(a)
		}
		t7 := time.Now()
		r.layer[laySynth] += t1.Sub(t0)
		r.layer[layFetch] += t2.Sub(t1)
		r.layer[layBranch] += t3.Sub(t2)
		r.layer[layL1D] += t4.Sub(t3)
		r.layer[layL2L3] += t5.Sub(t4)
		r.layer[layTLB] += t6.Sub(t5)
		r.layer[layMem] += t7.Sub(t6)
		done += uint64(got)
	}
}

// fetch is machine's fetchSweep under an idempotent L1I policy.
func (r *replay) fetch(buf []trace.Uop) (int, int) {
	l1i, memAddr, brIdx := r.l1i, r.memAddr, r.brIdx
	nm, nb := uint32(0), uint32(0)
	lastLine, lastOK, credit := ^uint64(0), false, uint64(0)
	for i := range buf {
		u := &buf[i]
		k := u.Kind
		r.kinds[k]++
		memAddr[nm] = u.Addr | kindStoreBit[k]
		nm += kindIsMem[k]
		brIdx[nb] = uint32(i)
		nb += kindIsBranch[k]
		line := u.PC >> r.shift
		if lastOK && line == lastLine {
			credit++
			continue
		}
		hit := true
		if l1i.MemoHit(u.PC) {
			credit++
		} else if hit = l1i.AccessHot(u.PC, cache.AccessFetch); !hit {
			l1i.AccessHot(u.PC+64, cache.AccessPrefetch)
		}
		lastLine, lastOK = line, hit
	}
	l1i.RecordHits(cache.AccessFetch, credit)
	return int(nm), int(nb)
}

// l1dPass is the L1D half of machine's dataSweep: it credits the hits
// and queues the misses for l2l3Pass.
func (r *replay) l1dPass(nm int) int {
	l1d, shift := r.l1d, r.shift
	lastLine := ^uint64(0)
	var credit [2]uint64
	nMiss := 0
	for _, p := range r.memAddr[:nm] {
		s := p >> 63
		addr := p &^ storeBit
		line := addr >> shift
		if line == lastLine {
			r.dataLevel[cache.HitL1]++
			r.loadLevel[cache.HitL1] += 1 - s
			credit[s]++
			continue
		}
		if l1d.MemoHit(addr) {
			credit[s]++
			lastLine = line
		} else if l1d.AccessHot(addr, accessBySBit[s]) {
			lastLine = line
		} else {
			r.miss[nMiss] = p
			nMiss++
			lastLine = ^uint64(0)
			continue
		}
		r.dataLevel[cache.HitL1]++
		r.loadLevel[cache.HitL1] += 1 - s
	}
	l1d.RecordHits(cache.AccessLoad, credit[0])
	l1d.RecordHits(cache.AccessStore, credit[1])
	return nMiss
}

// l2l3Pass completes the L1D misses through the L2/L3 walk.
func (r *replay) l2l3Pass(nMiss int) {
	for _, p := range r.miss[:nMiss] {
		s := p >> 63
		level := r.hier.DataHotMiss(p&^storeBit, accessBySBit[s])
		r.dataLevel[level]++
		r.loadLevel[level] += 1 - s
	}
}

// tlbPass is the translation half of dataSweep: consecutive same-page
// accesses credit a DTLB hit, a page change translates and queues the
// address for the footprint.
func (r *replay) tlbPass(nm int) int {
	n := 0
	for _, p := range r.memAddr[:nm] {
		addr := p &^ storeBit
		if page := addr >> tlb.PageBits; page == r.dataPage {
			r.tlb.RecordL1Hits(1)
		} else {
			r.tlb.Translate(addr)
			r.pages[n] = addr
			n++
			r.dataPage = page
		}
	}
	return n
}

// kernelLayers runs the replays and reports the per-layer metrics.
func kernelLayers(r *run, cfg machine.Config, n uint64, reps int) error {
	for _, rp := range replayPairs {
		pair, err := pairByApp(profile.Ref, rp.app)
		if err != nil {
			return err
		}
		var res []*replayResult
		for i := 0; i < reps; i++ {
			x, err := replayKernel(cfg, pair, n, i%2 == 0)
			r.op(err, "kernel replay %s", rp.app)
			if err != nil {
				continue
			}
			r.check(x.same, "kernel replay %s: derived counters differ from machine.Run", rp.app)
			res = append(res, x)
		}
		if len(res) == 0 {
			continue
		}
		perUop := func(d func(*replayResult) time.Duration) float64 {
			return median(res, func(x *replayResult) float64 { return float64(d(x).Nanoseconds()) / float64(x.uops) })
		}
		for l := 0; l < numLayers; l++ {
			r.set(layerNames[l]+"-"+rp.suffix, "ns/uop", perUop(func(x *replayResult) time.Duration { return x.layer[l] }))
		}
		r.set("machine.derive_us-"+rp.suffix, "us", median(res, func(x *replayResult) float64 { return x.derive.Seconds() * 1e6 }))
		r.set("machine.run_ns_per_uop-"+rp.suffix, "ns/uop", perUop(func(x *replayResult) time.Duration { return x.whole }))
		attrib := median(res, func(x *replayResult) float64 { return float64(x.total()) / float64(x.whole) })
		r.set("machine.attrib_ratio-"+rp.suffix, "ratio", attrib)
		r.check(attrib >= 0.9 && attrib <= 1.1, "machine.attrib_ratio-%s = %.3f outside 0.9-1.1", rp.suffix, attrib)

		ct := res[0].counts
		for _, x := range res[1:] {
			r.check(x.counts == ct, "kernel replay %s: simulated counts differ between replays", rp.app)
		}
		loads := ct.LoadLevel[0] + ct.LoadLevel[1] + ct.LoadLevel[2] + ct.LoadLevel[3]
		l2Seen := loads - ct.LoadLevel[cache.HitL1]
		l3Seen := l2Seen - ct.LoadLevel[cache.HitL2]
		exec, misp := ct.Branch.Total()
		r.set("cache.l1d_hit_ratio-"+rp.suffix, "ratio", ratio(ct.LoadLevel[cache.HitL1], loads))
		r.set("cache.l2_hit_ratio-"+rp.suffix, "ratio", ratio(ct.LoadLevel[cache.HitL2], l2Seen))
		r.set("cache.l3_hit_ratio-"+rp.suffix, "ratio", ratio(ct.LoadLevel[cache.HitL3], l3Seen))
		r.set("branch.mispredict_ratio-"+rp.suffix, "ratio", ratio(misp, exec))
	}
	return nil
}

// tierLayers times the layers only the cheaper tiers use: the sampled
// tier's fast-forward (Skip/SkipWarm), the analytic tier per pair, and
// the reuse-distance profiler it is built on.
func tierLayers(r *run, cfg machine.Config, n uint64, reps int) error {
	var skipNs, skipUops, anaMs, touchNs []float64
	for _, rp := range replayPairs {
		pair, err := pairByApp(profile.Ref, rp.app)
		if err != nil {
			return err
		}
		for i := 0; i < reps; i++ {
			gen, err := synth.New(pair.Model, cfg.Geometry())
			if err != nil {
				return err
			}
			gen.Skip(gen.Prologue())
			start := time.Now()
			done := gen.Skip(n / 2)
			done += gen.SkipWarm(n/2, func(*trace.Uop) {})
			skipNs = append(skipNs, float64(time.Since(start).Nanoseconds()))
			skipUops = append(skipUops, float64(done))

			gen, err = synth.New(pair.Model, cfg.Geometry())
			if err != nil {
				return err
			}
			start = time.Now()
			_, err = analytic.Run(cfg, gen, kernelOptions(pair.Model, gen, n))
			anaMs = append(anaMs, time.Since(start).Seconds()*1e3)
			r.op(err, "analytic run %s", rp.app)

			touchNs = append(touchNs, rdistTouch(cfg, pair, 64<<10))
		}
	}
	total, uops := 0.0, 0.0
	for i := range skipNs {
		total += skipNs[i]
		uops += skipUops[i]
	}
	r.set("synth.skip_ns_per_uop", "ns/uop", total/uops)
	r.set("analytic.run_ms_per_pair", "ms", medianOf(anaMs))
	r.set("rdist.touch_ns", "ns", medianOf(touchNs))
	return nil
}

// rdistTouch times Profiler.Touch over a pair's first n data addresses
// after its prologue.
func rdistTouch(cfg machine.Config, pair profile.Pair, n int) float64 {
	gen, err := synth.New(pair.Model, cfg.Geometry())
	if err != nil {
		return 0
	}
	gen.Skip(gen.Prologue())
	addrs := make([]uint64, 0, n)
	buf := make([]trace.Uop, machine.DefaultBatchSize)
	for len(addrs) < n {
		got := gen.NextBatch(buf)
		if got == 0 {
			break
		}
		for i := range buf[:got] {
			if buf[i].IsMem() && len(addrs) < n {
				addrs = append(addrs, buf[i].Addr)
			}
		}
	}
	p := rdist.NewProfiler(cfg.Hierarchy.L1D.LineBytes)
	start := time.Now()
	for _, a := range addrs {
		p.Touch(a)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(addrs))
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func median[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return medianOf(v)
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

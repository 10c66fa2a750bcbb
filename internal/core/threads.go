package core

import (
	"context"

	"repro/internal/machine"
	"repro/internal/perf"
	"repro/internal/profile"
)

// CharacterizeThreaded simulates a multi-threaded pair (Threads > 1) as
// that many co-running streams with private L1/L2 and a shared L3 — the
// configuration behind the paper's SPECspeed OpenMP runs and its
// observation that speed-fp IPC collapses under shared-cache pressure.
//
// Each thread runs the pair's model in a distinct address region (OpenMP
// data decomposition); rates are averaged across threads and counts
// summed. CharacterizePair uses a single stream and bakes contention into
// the calibrated ILP; this function makes the contention mechanical, for
// studies of the mechanism itself (see BenchmarkAblationSharedL3).
func CharacterizeThreaded(pair profile.Pair, opt Options) (*Characteristics, error) {
	opt = opt.withDefaults()
	m := pair.Model
	threads := m.Threads
	if threads <= 1 {
		return CharacterizePair(pair, opt)
	}
	srcs, prologue, err := copies(m, opt.Machine.Geometry(), threads, true)
	if err != nil {
		return nil, err
	}
	res, err := machine.RunShared(opt.Machine, srcs, pairOptions(context.TODO(), m, opt, prologue))
	if err != nil {
		return nil, err
	}
	c := &Characteristics{
		Pair:          pair,
		InstrBillions: m.InstrBillions,
		RSSMiB:        m.RSSMiB,
		VSZMiB:        m.VSZMiB,
	}
	// Average the per-core rate metrics; the cores are statistically
	// identical so this is a variance reduction, not a mixture.
	n := float64(threads)
	for _, core := range res.PerCore {
		c.IPC += core.IPC / n
		c.LoadPct += core.Counters.LoadPct() / n
		c.StorePct += core.Counters.StorePct() / n
		c.BranchPct += core.Counters.BranchPct() / n
		c.MispredictPct += core.Counters.MispredictPct() / n
		c.L1MissPct += core.Counters.CacheMissPct(1) / n
		c.L2MissPct += core.Counters.CacheMissPct(2) / n
		c.L3MissPct += core.Counters.CacheMissPct(3) / n
		c.addCPIStack(core)
	}
	c.Counters = sumCounters(res)
	c.addBranchClasses(c.Counters, 1)
	c.ExecSeconds = execSeconds(m.InstrBillions, c.IPC, opt.Machine.ClockHz, threads)
	return c, nil
}

// sumCounters merges per-core counter snapshots into one.
func sumCounters(res *machine.SharedResult) *perf.Counters {
	sums := map[string]uint64{}
	var rss, vsz uint64
	var seconds float64
	for _, core := range res.PerCore {
		for _, name := range core.Counters.Names() {
			v, _ := core.Counters.Value(name)
			sums[name] += v
		}
		rss += core.Counters.RSSBytes
		vsz += core.Counters.VSZBytes
		if core.Counters.Seconds > seconds {
			seconds = core.Counters.Seconds
		}
	}
	return perf.NewCounters(sums, rss, vsz, seconds)
}

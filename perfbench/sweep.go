package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/sweep"
)

// sweepRun is the exact-screen sweep with escalation off over the 36
// rate ref pairs: at full scale over l3.size {1,2,4 MiB} x l3.ways
// {8,16} (216 cells), at mini scale over l2.ways {4,8} (72 cells),
// which never varies the L3. A pass sweeps the pairs in passRounds
// chunks, one per round, each over the whole grid.
type sweepRun struct {
	pairs  []profile.Pair // in canonical order
	chunks [][]int        // pair indices of each chunk, in the seed's order
	axes   []sweep.Axis
	window uint64
	// first holds the first pass's cells; once the pass is done, the
	// whole sweep is rerun from it to check every cell was simulated
	// and to take the knee report.
	first     *sched.Cache
	simulated int
}

// sweepWindow is the sweep's instruction window per pair before the
// seed's offset. The exact screen does not sample, so it needs no more
// than half the campaign's window, and a run keeps within its time.
const sweepWindow = baseWindow / 2

func newSweep(r *run, sc scale) *sweepRun {
	pairs := ratePairs()
	axes := []sweep.Axis{
		{Param: "l3.size", Values: []int64{1 << 20, 2 << 20, 4 << 20}},
		{Param: "l3.ways", Values: []int64{8, 16}},
	}
	if sc == mini {
		axes = []sweep.Axis{{Param: "l2.ways", Values: []int64{4, 8}}}
	}
	return &sweepRun{
		pairs: pairs, chunks: chunkIndices(r, "sweep", len(pairs)), axes: axes,
		window: sweepWindow + r.windowOffset(), first: sched.NewCache(),
	}
}

func (s *sweepRun) spec(pairs []profile.Pair) sweep.Spec {
	return sweep.Spec{Axes: s.axes, Pairs: pairs, Screen: machine.FidelityExact, EscalateOff: true}
}

func (s *sweepRun) cells(pairs int) int {
	n := pairs
	for _, a := range s.axes {
		n *= len(a.Values)
	}
	return n
}

// round sweeps round's chunk and samples its cell rate. The first pass
// keeps its cells; later passes run with a fresh cache so every cell is
// simulated again.
func (s *sweepRun) round(r *run, round int, tr *obs.Trace) error {
	idx := s.chunks[round%passRounds]
	pairs := make([]profile.Pair, len(idx))
	for i, j := range idx {
		pairs[i] = s.pairs[j]
	}
	cache := s.first
	if round >= passRounds {
		cache = sched.NewCache()
	}
	base := core.Options{Instructions: s.window, Parallelism: measureParallelism, Cache: cache, Trace: tr}
	runtime.GC()
	r.probe()
	start := cpuTime()
	res, err := sweep.Run(context.Background(), s.spec(pairs), sweep.Options{Base: base})
	cpu := cpuTime() - start
	r.op(err, "sweep round %d", round)
	if err != nil {
		return err
	}
	want := s.cells(len(pairs))
	r.check(res.Cells == want && res.Screen.Simulated == want,
		"sweep round %d: %d cells, %d simulated, want %d of each", round, res.Cells, res.Screen.Simulated, want)
	r.rate("sweep_cells_per_ref_s", "cells/ref-s", float64(res.Cells)/cpu.Seconds())
	if round < passRounds {
		s.simulated += res.Screen.Simulated
	}
	if round == passRounds-1 {
		return s.whole(r)
	}
	return nil
}

// whole reruns the whole sweep, in the seed's pair order, from the
// first pass's cells: every cell must come from memory, and its knee
// report must repeat across runs.
func (s *sweepRun) whole(r *run) error {
	var pairs []profile.Pair
	for _, ch := range s.chunks {
		for _, j := range ch {
			pairs = append(pairs, s.pairs[j])
		}
	}
	base := core.Options{Instructions: s.window, Parallelism: measureParallelism, Cache: s.first}
	res, err := sweep.Run(context.Background(), s.spec(pairs), sweep.Options{Base: base})
	r.op(err, "whole sweep")
	if err != nil {
		return err
	}
	want := s.cells(len(pairs))
	r.check(s.simulated == want && res.Cells == want && res.Screen.Memory == want,
		"sweep: %d cells simulated in the first pass, %d of %d served from them, want %d",
		s.simulated, res.Screen.Memory, res.Cells, want)
	knees, _ := json.Marshal(res.Knees)
	sum := sha256.Sum256(knees)
	r.fact("sweep.cells", res.Cells)
	r.repeatFact("sweep.knee_digest", hex.EncodeToString(sum[:]))
	return nil
}

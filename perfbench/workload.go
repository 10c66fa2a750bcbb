package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
)

// setupReps is how many set-ups each round measures.
const setupReps = 5

// passRounds is the rounds of one pass: each subsystem splits its work
// for a pass into this many chunks and runs one per round. An untraced
// run makes whole passes, so each throughput metric is the median of
// samples over the same work whatever the seed, at least this many.
const passRounds = 18

// measureParallelism is how many pairs the campaign and the sweep
// simulate at once. The benchmark gets a few cores of a shared host; one
// simulating goroutine leaves a core for the garbage collector, where a
// second would measure the host's scheduler too.
const measureParallelism = 1

// kernelReps is how many times the traced run replays each kernel pair,
// over kernelWindow instructions after its warmup: short replays, each
// next to its machine.Run, and many of them, so the median attribution
// ratio stays clear of the host's drift. tierReps repeats the tier
// layers.
const (
	kernelReps   = 61
	kernelWindow = 256 << 10
	tierReps     = 5
)

// workload sets the scale each subsystem runs at. Every workload runs
// all three, because each run must report every end-to-end metric.
type workload struct {
	campaign, sweep, serve scale
}

// workloads are the benchmark's workloads by name (see README.md).
var workloads = map[string]workload{
	"campaign": {campaign: full, sweep: full, serve: mini},
	"serve":    {campaign: mini, sweep: mini, serve: full},
}

// runWorkload runs one workload. An untraced run makes as many whole
// passes as its budget holds, at least one: each round measures set-up,
// runs a chunk of the campaign at every tier and a chunk of the sweep,
// and makes a serve round. Reporting the median of many short samples,
// spread over the whole run, keeps the host's drift out of the figures.
// A traced run reports the per-layer metrics instead.
func runWorkload(r *run, w workload) error {
	if r.trace {
		return tracedRun(r, w)
	}
	c := newCampaign(r, w.campaign)
	s := newSweep(r, w.sweep)
	start := time.Now()
	var passStart time.Time
	// spent is each part's wall time over the run, recorded with it so
	// the budget can be planned.
	spent := map[string]time.Duration{}
	timed := func(part string, f func() error) error {
		t := time.Now()
		err := f()
		spent[part] += time.Since(t)
		return err
	}
	for round := 0; ; round++ {
		if round%passRounds == 0 {
			passStart = time.Now()
		}
		if err := timed("setup", func() error { return measureSetup(r, setupReps) }); err != nil {
			return err
		}
		if err := timed("campaign", func() error { return c.round(r, round, nil) }); err != nil {
			return err
		}
		if err := timed("sweep", func() error { return s.round(r, round, nil) }); err != nil {
			return err
		}
		if err := timed("serve", func() error {
			_, err := serveRound(r, w.serve, round, false)
			return err
		}); err != nil {
			return err
		}
		if (round+1)%passRounds == 0 && time.Since(start)+time.Since(passStart) > r.budget {
			r.fact("passes", (round+1)/passRounds)
			break
		}
	}
	for part, d := range spent {
		r.fact("wall_s."+part, d.Seconds())
	}
	c.report(r)
	r.settle()
	return nil
}

// tracedRun is the separate traced run. It makes one pass of the
// workload's first full-scale subsystem untraced and then traced on the
// same seed for the tracing overhead, makes a traced pass of the
// others, takes the span metrics from the traces' manifests, and
// replays the kernel and serving layers.
func tracedRun(r *run, w workload) error {
	passes := []func(*obs.Trace) error{
		func(tr *obs.Trace) error { return campaignPass(r, w.campaign, tr) },
		func(tr *obs.Trace) error { return sweepPass(r, w.sweep, tr) },
		func(tr *obs.Trace) error { return servePass(r, w.serve, tr) },
	}
	first := 2
	if w.campaign == full {
		first = 0
	}
	var untraced, traced time.Duration
	for _, tr := range []*obs.Trace{nil, obs.NewTrace()} {
		start := time.Now()
		if err := passes[first](tr); err != nil {
			return err
		}
		if tr == nil {
			untraced = time.Since(start)
		} else {
			traced = time.Since(start)
		}
	}
	r.set("obs.trace_overhead_ratio", "ratio", traced.Seconds()/untraced.Seconds())
	for i, pass := range passes {
		if i != first {
			if err := pass(obs.NewTrace()); err != nil {
				return err
			}
		}
	}

	cfg := machine.HaswellScaled()
	if err := kernelLayers(r, cfg, kernelWindow+r.windowOffset(), kernelReps); err != nil {
		return err
	}
	if err := tierLayers(r, cfg, baseWindow+r.windowOffset(), tierReps); err != nil {
		return err
	}
	r.set("host.probe_ms", "ms", medianOf(r.probes))
	return servingLayers(r, r.lastServe)
}

// campaignPass makes one pass of the campaign for the traced run; with
// a trace it also reports the campaign's span metrics.
func campaignPass(r *run, sc scale, tr *obs.Trace) error {
	c := newCampaign(r, sc)
	for round := 0; round < passRounds; round++ {
		if err := c.round(r, round, tr); err != nil {
			return err
		}
	}
	if tr == nil {
		return nil
	}
	r.set("subset.compute_ms", "ms", c.subsetMS)
	return campaignSpanLayers(r, tr)
}

// sweepPass makes one pass of the sweep for the traced run; with a
// trace it also reports the sweep's span metrics.
func sweepPass(r *run, sc scale, tr *obs.Trace) error {
	s := newSweep(r, sc)
	for round := 0; round < passRounds; round++ {
		if err := s.round(r, round, tr); err != nil {
			return err
		}
	}
	if tr == nil {
		return nil
	}
	camps, err := traceCampaigns(tr)
	if err != nil {
		return err
	}
	var cells []float64
	for _, c := range camps {
		cells = append(cells, c.pairMS...)
	}
	r.set("sweep.cell_ms_p50", "ms", quantile(cells, 0.5))
	r.set("sweep.cells_simulated", "count", float64(len(cells)))
	return nil
}

// servePass is the traced run's serve pass: one round, whose responses
// the serving-layer timings reuse when it is traced.
func servePass(r *run, sc scale, tr *obs.Trace) error {
	res, err := serveRound(r, sc, 0, tr != nil)
	if err != nil {
		return err
	}
	if tr != nil {
		r.lastServe = res
	}
	return nil
}

// traceCampaigns reads a trace's campaign span trees back through the
// JSONL run manifest.
func traceCampaigns(tr *obs.Trace) ([]campaignSpan, error) {
	m, err := tr.Manifest()
	if err != nil {
		return nil, err
	}
	_, spans, err := obs.ReadManifest(bytes.NewReader(m))
	if err != nil {
		return nil, err
	}
	return campaignSpans(spans), nil
}

// campaignSpanLayers derives the per-layer metrics a campaign pass's
// span trees carry.
func campaignSpanLayers(r *run, tr *obs.Trace) error {
	camps, err := traceCampaigns(tr)
	if err != nil {
		return err
	}
	// A pass holds one campaign span per round and tier, tiers in order.
	if len(camps) != passRounds*len(tiers) {
		return fmt.Errorf("campaign trace holds %d campaign spans, want %d", len(camps), passRounds*len(tiers))
	}
	for t, tier := range tiers {
		var pairMS []float64
		var pairSum, warmup, busy float64
		for i := t; i < len(camps); i += len(tiers) {
			c := camps[i]
			pairMS = append(pairMS, c.pairMS...)
			for _, v := range c.pairMS {
				pairSum += v
			}
			warmup += c.stageMS["warmup"]
			busy += float64(c.workers) * c.ms
		}
		name := tier.String()
		r.set("core.pair_ms_p50."+name, "ms", quantile(pairMS, 0.5))
		r.set("core.pair_ms_p90."+name, "ms", quantile(pairMS, 0.9))
		if tier == machine.FidelityExact {
			r.set("machine.warmup_share", "ratio", warmup/pairSum)
			r.set("sched.busy_ratio", "ratio", pairSum/busy)
		}
	}
	return nil
}

// campaignSpan summarizes one campaign span tree.
type campaignSpan struct {
	ms      float64
	workers int
	pairMS  []float64
	stageMS map[string]float64
}

// campaignSpans groups a manifest's spans by campaign root: pair spans
// are the children carrying a worker attribute, stages their children.
func campaignSpans(spans []obs.ManifestSpan) []campaignSpan {
	var out []campaignSpan
	root := map[int]int{} // campaign span ID -> index in out
	pairOf := map[int]int{}
	for _, s := range spans {
		ms := float64(s.DurUS) / 1e3
		switch {
		case s.Name == "campaign" && s.Parent == 0:
			root[s.ID] = len(out)
			out = append(out, campaignSpan{ms: ms, stageMS: map[string]float64{}})
		case s.Kind == "stage":
			if c, ok := pairOf[s.Parent]; ok {
				out[c].stageMS[s.Name] += ms
			}
		default:
			c, ok := root[s.Parent]
			if !ok {
				continue
			}
			if _, isPair := s.Attrs["worker"]; isPair {
				pairOf[s.ID] = c
				out[c].pairMS = append(out[c].pairMS, ms)
			} else {
				out[c].workers++
			}
		}
	}
	return out
}

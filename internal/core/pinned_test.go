package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

const pinnedPath = "testdata/pinned_results.json"

// pinnedModel is the memory-bound pair the machine-level run paths are
// pinned on: its L2/L3 turnover exercises the gap aging and re-warm
// sizing that a cache-resident pair would leave untouched.
func pinnedModel(t *testing.T) profile.Model {
	t.Helper()
	return speedFPPair(t, "505.mcf_r").Model
}

// pinnedOptions mirrors the machine options core builds for a pair run;
// sampled runs drop the fractional warmup the way core does.
func pinnedOptions(t *testing.T, cfg machine.Config, m profile.Model, n uint64, sp machine.Sampling) machine.Options {
	t.Helper()
	gen, err := synth.New(m, cfg.Geometry())
	if err != nil {
		t.Fatal(err)
	}
	opt := machine.Options{
		Instructions:       n,
		WarmupInstructions: gen.Prologue(),
		Workload:           pipeline.Workload{ILP: 2, MLP: m.MLP},
		CalibrateIPC:       m.TargetIPC,
		Sampling:           sp,
	}
	if sp.Enabled() {
		opt.WarmupFraction = -1
	}
	return opt
}

// pinnedDigest hashes the JSON encoding of v, whose floats encode as the
// shortest form that parses back to the same bits, so any changed
// result bit changes the digest.
func pinnedDigest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// machineDigest hashes every deterministic field of a machine Result.
// The parallel stats' window wall times and executor count depend on
// the host and scheduling, never on the simulated stream, so they are
// left out.
func machineDigest(t *testing.T, res *machine.Result) string {
	t.Helper()
	r := *res
	if r.Parallel != nil {
		st := *r.Parallel
		st.WindowSeconds, st.Executors = nil, 0
		r.Parallel = &st
	}
	return pinnedDigest(t, &r)
}

// TestPinnedResults pins every non-exact run path bit for bit: the
// sampled loop at the default knob and at a period long enough for one
// gap to span several chunked skips, the parallel windows at K=2 and
// K=4, the shared-L3 round robin, a rate+topology scenario and a
// threaded pair. The tolerance tests only bound these paths against the
// exact run; this test proves a refactor of the window machinery moved
// no bit. Rewrite the hashes with -update only for a change meant to
// alter results.
func TestPinnedResults(t *testing.T) {
	cfg := machine.HaswellScaled()
	m := pinnedModel(t)
	newSource := func() (trace.Source, error) { return synth.New(m, cfg.Geometry()) }
	run := func(n uint64, sp machine.Sampling) *machine.Result {
		src, err := newSource()
		if err != nil {
			t.Fatal(err)
		}
		res, err := machine.Run(cfg, src, pinnedOptions(t, cfg, m, n, sp))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	parallel := func(k int) *machine.Result {
		res, err := machine.RunParallel(cfg, newSource, pinnedOptions(t, cfg, m, 1<<19, machine.Sampling{}), k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Parallel.Workers != k {
			t.Fatalf("RunParallel K=%d ran %d workers", k, res.Parallel.Workers)
		}
		return res
	}

	got := map[string]string{}
	got["exact"] = machineDigest(t, run(200000, machine.Sampling{}))
	got["sampled-default"] = machineDigest(t, run(1<<20, machine.DefaultSampling()))
	long := machine.Sampling{Period: 2 << 20, DetailLen: 8192, WarmupLen: 8192}
	got["sampled-long-period"] = machineDigest(t, run(4*long.Period, long))
	got["parallel-k2"] = machineDigest(t, parallel(2))
	got["parallel-k4"] = machineDigest(t, parallel(4))

	srcs := make([]trace.Source, 2)
	for i := range srcs {
		tm := m
		tm.Seed = m.Seed + uint64(i)*0x9e37
		gen, err := synth.New(tm, cfg.Geometry())
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = gen
	}
	shared, err := machine.RunShared(cfg, srcs, pinnedOptions(t, cfg, m, 60000, machine.Sampling{}))
	if err != nil {
		t.Fatal(err)
	}
	got["shared-n2"] = pinnedDigest(t, shared)

	topo, err := machine.ParseTopology("2P2E-random")
	if err != nil {
		t.Fatal(err)
	}
	pair := speedFPPair(t, "505.mcf_r")
	scen, err := CharacterizePair(pair, Options{Instructions: 60000, RateCopies: 2, Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	got["core-rate2-topo-2P2E-random"] = pinnedDigest(t, scen)
	threaded, err := CharacterizeThreaded(speedFPPair(t, "619.lbm_s"), Options{Instructions: 30000})
	if err != nil {
		t.Fatal(err)
	}
	got["core-threaded-619.lbm_s"] = pinnedDigest(t, threaded)

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", pinnedPath)
		return
	}
	raw, err := os.ReadFile(pinnedPath)
	if err != nil {
		t.Fatalf("read %s (regenerate with -update): %v", pinnedPath, err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: result digest %s, pinned %s", name, got[name], want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("pinned %d run paths, test produced %d", len(want), len(got))
	}
}

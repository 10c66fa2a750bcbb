package machine

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// conflictStream is a uop stream whose L2 and L3 outcomes depend on
// the L2's and L3's associativity and replacement policy, which the
// calibrated synthetic workloads' largely do not. It holds:
//   - a ring of same-set lines more than 8 but at most 16 deep (every
//     level maps it to one set, so it misses the 8-way L1D and L2 and
//     hits only a wide L3);
//   - a 7-deep ring of lines sharing another set at every level beside
//     two hot lines of that set: the hot lines keep the 8-way L1D set
//     full, so every ring access misses the L1D, and the ring fits an
//     8-way L2 set but not a 4-way one;
//   - random loads and stores over a region twice the scaled L3;
//   - branches over a code region larger than the L2, whose fetch
//     misses reach the L2 and L3 on a unified machine.
func conflictStream(n int, l3Bytes int) []trace.Uop {
	rng := xrand.NewSplitMix64(7)
	uops := make([]trace.Uop, n)
	const ring, l2Ring = 12, 7
	const l2Set = 0x20000000 + 65*64 // a different set from the L3 ring's at every level
	pc := uint64(0x400000)
	for i := range uops {
		u := &uops[i]
		pc += 4
		if pc >= 0x400000+1<<20 {
			pc = 0x400000
		}
		u.PC = pc
		switch i % 8 {
		case 0, 3:
			u.Kind = trace.KindLoad
			u.Addr = 0x10000000 + uint64(i/8%ring)*uint64(l3Bytes)
		case 1, 5:
			u.Kind = trace.KindLoad
			u.Addr = 0x40000000 + rng.Uint64()%uint64(2*l3Bytes)
		case 2:
			u.Kind = trace.KindStore
			u.Addr = 0x40000000 + rng.Uint64()%uint64(2*l3Bytes)
		case 4:
			u.Kind = trace.KindLoad
			u.Addr = l2Set + uint64(l2Ring+i/8%2)<<16
		case 7:
			u.Kind = trace.KindLoad
			u.Addr = l2Set + uint64(i/8%l2Ring)<<16
		case 6:
			u.Kind = trace.KindBranch
			u.Branch = trace.BranchConditional
			u.Taken = rng.Uint64()%3 == 0
			if u.Taken {
				u.Target = 0x400000 + rng.Uint64()%(1<<20)&^3
				pc = u.Target
			}
		}
	}
	return uops
}

// TestRunFamilyMatchesRun: every Result a family pass derives over an
// L2 ways x L3 ways grid is bit-identical to Run on that configuration
// alone, under every L2 and L3 policy, on the unified code path and
// with either prefetcher — on a stream where the siblings really
// disagree at both levels.
func TestRunFamilyMatchesRun(t *testing.T) {
	machines := map[string]func() Config{
		"scaled":  HaswellScaled,
		"haswell": Haswell,
		"nextline": func() Config {
			c := HaswellScaled()
			c.Hierarchy.Prefetcher = &cache.NextLinePrefetcher{LineBytes: 64, Degree: 2}
			return c
		},
		"stride": func() Config {
			c := HaswellScaled()
			c.Hierarchy.Prefetcher = &cache.StridePrefetcher{LineBytes: 64, Degree: 2}
			return c
		},
	}
	n := uint64(60000)
	if testing.Short() {
		n = 20000
	}
	opt := Options{Instructions: n, WarmupInstructions: 10000, WarmupFraction: -1}
	// The primary keeps the default 8-way L2, so the 8-way siblings sit
	// under its L2 and the 4-way ones under one sibling L2.
	type ways struct{ l2, l3 int }
	grid := []ways{{8, 16}, {8, 4}, {8, 8}, {4, 4}, {4, 8}, {4, 16}}
	for name, mk := range machines {
		for _, pol := range cache.Policies() {
			t.Run(name+"/"+pol.Name(), func(t *testing.T) {
				cfgs := make([]Config, len(grid))
				for i, w := range grid {
					cfgs[i] = mk()
					cfgs[i].Hierarchy.L2.Policy = pol
					cfgs[i].Hierarchy.L3.Policy = pol
					cfgs[i].Hierarchy.L2.Ways = w.l2
					cfgs[i].Hierarchy.L3.Ways = w.l3
				}
				uops := conflictStream(int(n)+20000, cfgs[0].Hierarchy.L3.SizeBytes)
				got, err := RunFamily(cfgs, &trace.SliceSource{Uops: uops}, opt)
				if err != nil {
					t.Fatal(err)
				}
				for i, cfg := range cfgs {
					want, err := Run(cfg, &trace.SliceSource{Uops: uops}, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got[i], want) {
						t.Errorf("%d-way L2, %d-way L3: family result differs from Run\nfamily: %+v %v\nrun:    %+v %v",
							grid[i].l2, grid[i].l3, got[i].Events, got[i].Counters, want.Events, want.Counters)
					}
				}
				if got[1].Events.L3Hits == got[0].Events.L3Hits {
					t.Errorf("4-way and 16-way L3s took %d hits each; the stream does not separate the L3 siblings", got[0].Events.L3Hits)
				}
				if got[2].Events.L2Hits == got[4].Events.L2Hits {
					t.Errorf("4-way and 8-way L2s took %d hits each; the stream does not separate the L2 siblings", got[2].Events.L2Hits)
				}
			})
		}
	}
}

// TestRunFamilyRejects: a family must differ in L2 and L3 ways alone,
// and a family of more than one does not sample.
func TestRunFamilyRejects(t *testing.T) {
	uops := conflictStream(40000, 2<<20)
	opt := Options{Instructions: 20000}
	a, b := HaswellScaled(), HaswellScaled()
	b.Hierarchy.L3.Ways = 8
	b.Hierarchy.L2.Ways = 4
	b.Name = "other"
	if _, err := RunFamily([]Config{a, b}, &trace.SliceSource{Uops: uops}, opt); err != nil {
		t.Fatalf("ways-only family rejected: %v", err)
	}
	b.Hierarchy.L2.SizeBytes = 512 << 10
	if _, err := RunFamily([]Config{a, b}, &trace.SliceSource{Uops: uops}, opt); err == nil || !strings.Contains(err.Error(), "beyond L2/L3 ways") {
		t.Errorf("L2-size-mismatched family error = %v", err)
	}
	b = HaswellScaled()
	b.Hierarchy.L3.SizeBytes = 1 << 20
	if _, err := RunFamily([]Config{a, b}, &trace.SliceSource{Uops: uops}, opt); err == nil {
		t.Error("size-mismatched family accepted")
	}
	sampled := opt
	sampled.Sampling = Sampling{Period: 8192, DetailLen: 1024, WarmupLen: 1024}
	b = HaswellScaled()
	b.Hierarchy.L3.Ways = 8
	if _, err := RunFamily([]Config{a, b}, &trace.SliceSource{Uops: uops}, sampled); err == nil {
		t.Error("sampled family accepted")
	}
	if _, err := RunFamily(nil, &trace.SliceSource{Uops: uops}, opt); err == nil {
		t.Error("empty family accepted")
	}
}

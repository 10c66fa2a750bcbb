package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/profile"
)

// familyPairs returns the named CPU2017 ref pairs (first input each).
func familyPairs(t *testing.T, names ...string) []profile.Pair {
	t.Helper()
	var pairs []profile.Pair
	for _, app := range profile.CPU2017() {
		for _, n := range names {
			if app.Name == n {
				pairs = append(pairs, app.Expand(profile.Ref)[0])
			}
		}
	}
	if len(pairs) != len(names) {
		t.Fatalf("found %d of pairs %v", len(pairs), names)
	}
	return pairs
}

// ways is one sibling's L2 and L3 associativity.
type ways struct{ l2, l3 int }

// waysGrid returns the l2 x l3 associativity grid, L2 outermost.
func waysGrid(l2, l3 []int) []ways {
	var grid []ways
	for _, a := range l2 {
		for _, b := range l3 {
			grid = append(grid, ways{a, b})
		}
	}
	return grid
}

// waysSiblings builds one sibling per grid point over the machine mk
// returns; mk is called per sibling so no two share a component.
func waysSiblings(mk func() machine.Config, grid []ways) []Sibling {
	sibs := make([]Sibling, len(grid))
	for i, w := range grid {
		cfg := mk()
		cfg.Hierarchy.L2.Ways = w.l2
		cfg.Hierarchy.L3.Ways = w.l3
		label := fmt.Sprintf("l3.size=%d,l2.ways=%d,l3.ways=%d", cfg.Hierarchy.L3.SizeBytes, w.l2, w.l3)
		cfg.Name += "@" + label
		sibs[i] = Sibling{Label: label, Machine: cfg}
	}
	return sibs
}

// checkFamily runs the siblings as one family and each sibling's
// machine alone (a fresh one from mk), and requires every cell to
// encode byte-identically.
func checkFamily(t *testing.T, pairs []profile.Pair, mk func() machine.Config, grid []ways, opt Options) {
	t.Helper()
	got, err := CharacterizeFamily(pairs, opt, waysSiblings(mk, grid))
	if err != nil {
		t.Fatal(err)
	}
	codec := CharacteristicsCodec{}
	for i, s := range waysSiblings(mk, grid) {
		o := opt
		o.Machine = s.Machine
		want, err := Characterize(pairs, o)
		if err != nil {
			t.Fatal(err)
		}
		for j := range pairs {
			a, err := codec.Encode(got[i][j])
			if err != nil {
				t.Fatal(err)
			}
			b, err := codec.Encode(want[j])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s %s: family cell differs from a standalone run\nfamily:     %s\nstandalone: %s",
					s.Label, pairs[j].Name(), a, b)
			}
		}
	}
}

// TestFamilyMatchesStandalone: over an l2.ways x l3.ways x l3.size
// grid, every cell a shared pass produces is byte-identical to
// characterizing that point's configuration alone. The calibrated
// models' L2 and L3 outcomes do not depend on associativity (their
// pools map contiguously onto the sets), so this pins the cell plumbing;
// machine's TestRunFamilyMatchesRun shows the siblings exact on a
// stream where the ways do move the L2 and the L3.
func TestFamilyMatchesStandalone(t *testing.T) {
	pairs := familyPairs(t, "505.mcf_r", "519.lbm_r", "541.leela_r", "508.namd_r")
	for _, size := range []int{1 << 20, 2 << 20} {
		mk := func() machine.Config {
			cfg := machine.HaswellScaled()
			cfg.Hierarchy.L3.SizeBytes = size
			return cfg
		}
		checkFamily(t, pairs, mk, waysGrid([]int{8, 4}, []int{4, 8, 16}), Options{Instructions: 40000, Parallelism: 2})
	}
}

// TestFamilyMatchesStandalonePolicies: the pass is exact under every
// L2 and L3 replacement policy, not only the stack policies.
func TestFamilyMatchesStandalonePolicies(t *testing.T) {
	pairs := familyPairs(t, "505.mcf_r", "519.lbm_r")
	for _, pol := range cache.Policies() {
		t.Run(pol.Name(), func(t *testing.T) {
			mk := func() machine.Config {
				cfg := machine.HaswellScaled()
				cfg.Hierarchy.L2.Policy = pol
				cfg.Hierarchy.L3.Policy = pol
				return cfg
			}
			checkFamily(t, pairs, mk, waysGrid([]int{8, 4}, []int{8, 16}), Options{Instructions: 30000, Parallelism: 1})
		})
	}
}

// TestFamilyMatchesStandaloneMachines: the unified code path (fetch
// misses reach the L2 and L3) and both prefetchers (prefetch fills
// reach the L2 and L3) keep the pass exact.
func TestFamilyMatchesStandaloneMachines(t *testing.T) {
	pairs := familyPairs(t, "505.mcf_r", "519.lbm_r")
	machines := map[string]func() machine.Config{
		"haswell": machine.Haswell,
		"nextline": func() machine.Config {
			cfg := machine.HaswellScaled()
			cfg.Hierarchy.Prefetcher = &cache.NextLinePrefetcher{LineBytes: 64, Degree: 2}
			return cfg
		},
		"stride": func() machine.Config {
			cfg := machine.HaswellScaled()
			cfg.Hierarchy.Prefetcher = &cache.StridePrefetcher{LineBytes: 64, Degree: 2}
			return cfg
		},
	}
	for name, mk := range machines {
		t.Run(name, func(t *testing.T) {
			checkFamily(t, pairs, mk, waysGrid([]int{8, 4}, []int{8, 16}), Options{Instructions: 30000, Parallelism: 2})
		})
	}
}

// TestFamilyBeyondCap: a family larger than maxSiblings splits into
// several passes and stays exact, also where a pass's first sibling
// has a non-default L2.
func TestFamilyBeyondCap(t *testing.T) {
	pairs := familyPairs(t, "505.mcf_r")
	grid := waysGrid([]int{8, 4}, []int{2, 4, 8, 16, 32})
	if len(grid) <= maxSiblings {
		t.Fatalf("%d siblings do not exceed the cap of %d", len(grid), maxSiblings)
	}
	checkFamily(t, pairs, machine.HaswellScaled, grid, Options{Instructions: 20000, Parallelism: 2})
}

// TestFamilyPerCell: on the tiers that cannot share a pass, and for a
// sibling group of one, every cell runs alone through runPair; on the
// exact tier a family of two never does.
func TestFamilyPerCell(t *testing.T) {
	pairs := fakePairs(3)
	var calls atomic.Int64
	stubRunPair(t, func(_ context.Context, pair profile.Pair, _ Options) (*Characteristics, error) {
		calls.Add(1)
		return &Characteristics{Pair: pair}, nil
	})
	base := Options{Instructions: 20000, Parallelism: 2}
	cases := map[string]func(*Options){
		"sampled":  func(o *Options) { o.Fidelity = machine.FidelitySampled },
		"analytic": func(o *Options) { o.Fidelity = machine.FidelityAnalytic },
		"rate":     func(o *Options) { o.RateCopies = 2 },
		"j-pair":   func(o *Options) { o.IntraPairWorkers = 2 },
	}
	sibs := waysSiblings(machine.HaswellScaled, waysGrid([]int{8}, []int{8, 16}))
	for name, mutate := range cases {
		o := base
		mutate(&o)
		if _, ok := FamilyKey(o); ok {
			t.Errorf("%s: FamilyKey allowed sharing", name)
		}
		calls.Store(0)
		if _, err := CharacterizeFamily(pairs, o, sibs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := calls.Load(); n != int64(len(sibs)*len(pairs)) {
			t.Errorf("%s: %d cells ran alone, want %d", name, n, len(sibs)*len(pairs))
		}
	}
	calls.Store(0)
	if _, err := CharacterizeFamily(pairs, base, sibs[:1]); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != int64(len(pairs)) {
		t.Errorf("one sibling: %d cells ran alone, want %d", n, len(pairs))
	}
	calls.Store(0)
	if _, err := CharacterizeFamily(fakePairs(1), base, sibs); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("exact family: %d cells ran alone, want 0", n)
	}
}

// TestFamilyMismatch: a shared pass over machines that differ beyond
// L2 and L3 ways is refused.
func TestFamilyMismatch(t *testing.T) {
	sibs := waysSiblings(machine.HaswellScaled, waysGrid([]int{8}, []int{8, 16}))
	sibs[1].Machine.Hierarchy.L3.SizeBytes = 1 << 20
	_, err := CharacterizeFamily(familyPairs(t, "505.mcf_r"), Options{Instructions: 20000}, sibs)
	if err == nil || !strings.Contains(err.Error(), "beyond L2/L3 ways") {
		t.Errorf("size-mismatched family error = %v", err)
	}
}

// TestFamilyTrace: every cell keeps its own pair span with a worker;
// the cell that ran the pass holds the stage spans, and the cells it
// simulated for name it with shared_pass.
func TestFamilyTrace(t *testing.T) {
	pairs := familyPairs(t, "505.mcf_r", "519.lbm_r")
	tr := obs.NewTrace()
	opt := Options{Instructions: 20000, Parallelism: 1, Trace: tr}
	sibs := waysSiblings(machine.HaswellScaled, waysGrid([]int{8}, []int{8, 16}))
	if _, err := CharacterizeFamily(pairs, opt, sibs); err != nil {
		t.Fatal(err)
	}
	b, err := tr.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	_, spans, err := obs.ReadManifest(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	stagesUnder := map[int]int{}
	for _, s := range spans {
		if s.Kind == "stage" {
			stagesUnder[s.Parent]++
		}
	}
	cells, shared := 0, 0
	for _, s := range spans {
		if _, ok := s.Attrs["worker"]; !ok {
			continue
		}
		cells++
		if by, ok := s.Attrs["shared_pass"]; ok {
			shared++
			if by != sibs[0].Label {
				t.Errorf("%s: shared_pass = %v, want %q", s.Name, by, sibs[0].Label)
			}
			if stagesUnder[s.ID] != 0 {
				t.Errorf("%s: a shared cell holds %d stage spans", s.Name, stagesUnder[s.ID])
			}
		} else if stagesUnder[s.ID] == 0 {
			t.Errorf("%s: the simulating cell holds no stage spans", s.Name)
		}
	}
	if cells != len(sibs)*len(pairs) || shared != len(pairs) {
		t.Errorf("trace holds %d cells, %d shared; want %d, %d", cells, shared, len(sibs)*len(pairs), len(pairs))
	}
}

package main

import (
	"bytes"
	"context"
	"flag"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/sweep"
)

// refPairs returns the first ref input of each named CPU2017 app.
func refPairs(t *testing.T, names ...string) []profile.Pair {
	t.Helper()
	all, err := resolvePairs("cpu2017", "all", "ref")
	if err != nil {
		t.Fatal(err)
	}
	var pairs []profile.Pair
	for _, name := range names {
		for _, p := range all {
			if p.App.Name == name {
				pairs = append(pairs, p)
				break
			}
		}
	}
	if len(pairs) != len(names) {
		t.Fatalf("found %d of the ref pairs %v", len(pairs), names)
	}
	return pairs
}

// TestLocalWaysGrid: a local exact sweep over l2.ways x l3.ways, whose
// four points share one stream pass per pair, reports for every point
// the metrics that characterizing that point alone gives, renders a
// grid row per point, and scores every cell as simulated.
func TestLocalWaysGrid(t *testing.T) {
	pairs := refPairs(t, "505.mcf_r", "541.leela_r")
	var cfg config
	fs := flag.NewFlagSet("specsweep", flag.ContinueOnError)
	fs.Var(&cfg.axes, "axis", "")
	cfg.Campaign.Register(fs)
	if err := fs.Parse([]string{"-axis", "l2.ways=4,8", "-axis", "l3.ways=8,16", "-j", "2"}); err != nil {
		t.Fatal(err)
	}
	cfg.n, cfg.screen, cfg.escalate = 30000, "exact", "off"
	metrics := []string{"ipc", "l2_miss_pct", "l3_miss_pct"}
	res, err := sweepPairs(context.Background(), cfg, pairs, metrics)
	if err != nil {
		t.Fatal(err)
	}
	cells := 4 * len(pairs)
	if res.Cells != cells || countsLine(res.Screen) != "simulated=8 memory=0 store=0 remote=0" {
		t.Errorf("scoreboard: %d cells, %s; want %d all simulated", res.Cells, countsLine(res.Screen), cells)
	}

	points, err := sweep.Expand(machine.HaswellScaled(), []sweep.Axis(cfg.axes))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(points) {
		t.Fatalf("sweep reports %d points, the grid has %d", len(res.Points), len(points))
	}
	picks := map[string]func(*core.Characteristics) float64{
		"ipc":         func(c *core.Characteristics) float64 { return c.IPC },
		"l2_miss_pct": func(c *core.Characteristics) float64 { return c.L2MissPct },
		"l3_miss_pct": func(c *core.Characteristics) float64 { return c.L3MissPct },
	}
	for i, pt := range points {
		chars, err := core.Characterize(pairs, core.Options{Machine: pt.Config, Instructions: cfg.n, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Points[i]
		if got.Label != pt.Label {
			t.Fatalf("point %d is %q, want %q", i, got.Label, pt.Label)
		}
		for m, pick := range picks {
			if want := core.Aggregate(chars, pick).Mean; got.Metrics[m] != want {
				t.Errorf("%s %s = %v, characterizing the point alone gives %v", pt.Label, m, got.Metrics[m], want)
			}
		}
	}

	var out bytes.Buffer
	if err := render(&out, cfg, res); err != nil {
		t.Fatal(err)
	}
	grid, _, _ := strings.Cut(out.String(), "\n\n")
	for _, pt := range points {
		if !strings.Contains(grid, pt.Label) {
			t.Errorf("grid table has no row for %s:\n%s", pt.Label, grid)
		}
	}
}

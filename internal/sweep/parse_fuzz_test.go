package sweep_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sweep"
)

// FuzzParseAxis: the axis parser never panics, whatever it accepts
// round-trips through FormatAxisValue to the same axis, and expanding
// the accepted axis over the default machine — zero, negative and huge
// values included — returns points or an error, never a panic, and
// never a point whose configuration fails validation.
func FuzzParseAxis(f *testing.F) {
	for _, s := range []string{
		"l3.size=1MiB,2MiB,4MiB", "l3.ways=8,16", "l2.ways=4,8", "line=64,128",
		"l3.size=1M,2m,1048576", "l3.ways=8,8", "l3.size=1MiB,1M", "l2.size=0",
		"l3.ways=-4", "l3.size=9223372036854775807", "l3.size=8589934592G",
		"btb.bits=12,25", "ras.depth=1,65537", "rate.copies=1,2,4", "l5.size=1K",
		"=", "l3.size=", "l3.size", " l1d.size = 32 KiB , 64k ", "l3.size=1GiB,2GiB",
	} {
		f.Add(s)
	}
	base := machine.HaswellScaled()
	f.Fuzz(func(t *testing.T, in string) {
		ax, err := sweep.ParseAxis(in)
		if err != nil {
			return
		}
		vals := make([]string, len(ax.Values))
		for i, v := range ax.Values {
			vals[i] = sweep.FormatAxisValue(ax.Param, v)
		}
		text := ax.Param + "=" + strings.Join(vals, ",")
		back, err := sweep.ParseAxis(text)
		if err != nil || !reflect.DeepEqual(back, ax) {
			t.Fatalf("ParseAxis(%q) = %+v; its form %q reparses to %+v (%v)", in, ax, text, back, err)
		}
		for _, v := range ax.Values {
			if ax.Param == sweep.RateAxis {
				continue
			}
			if cfg, err := machine.ApplyAxis(base, ax.Param, v); err == nil && v <= 0 {
				t.Fatalf("ApplyAxis(%s, %d) accepted a non-positive value: %+v", ax.Param, v, cfg.Hierarchy)
			}
		}
		points, err := sweep.Expand(base, []sweep.Axis{ax})
		if err != nil {
			return
		}
		for _, pt := range points {
			if err := pt.Config.Validate(); err != nil {
				t.Fatalf("Expand(%q) returned invalid point %s: %v", in, pt.Label, err)
			}
		}
	})
}

package machine

import (
	"encoding/json"
	"sort"
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
)

// FuzzParseSampling: the knob parser never panics, only accepts knobs
// whose windows fit in the period, and whatever it accepts round-trips
// through String to the same knob.
func FuzzParseSampling(f *testing.F) {
	for _, s := range []string{
		"", "off", "none", "0", "on", "default", "262144/8192/8192",
		" 131072 / 4096 / 4096 ", "8/8/0", "1/0/0", "x/1/1", "1/2", "0/0/0",
		"10/18446744073709551615/2", // window lengths that overflow when summed
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sp, err := ParseSampling(in)
		if err != nil {
			return
		}
		if sp.Enabled() && (sp.DetailLen == 0 || sp.DetailLen > sp.Period || sp.WarmupLen > sp.Period-sp.DetailLen) {
			t.Fatalf("ParseSampling(%q) accepted %+v, whose windows do not fit its period", in, sp)
		}
		back, err := ParseSampling(sp.String())
		if err != nil || back != sp {
			t.Fatalf("ParseSampling(%q) = %+v; String %q reparses to %+v (%v)", in, sp, sp.String(), back, err)
		}
	})
}

// FuzzParseTopology: the topology parser never panics, only accepts
// valid topologies, and whatever it accepts round-trips through String
// to the same topology.
func FuzzParseTopology(f *testing.F) {
	for _, s := range []string{
		"", "off", "4P4E-random", "4p+4e/random", "2P2E-best", "1P0E", "0P1E-pinned-e",
		"8P4E-worst", "4P4E-", "-4P4E", "P4E", "4P4E-turbo", "4E4P", "ɐ4P4E-random",
		"ɐɐɐɐ4P4E-x", // upper-casing lengthens the string past the separator
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		topo, err := ParseTopology(in)
		if err != nil {
			return
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("ParseTopology(%q) accepted invalid %+v: %v", in, topo, err)
		}
		back, err := ParseTopology(topo.String())
		if err != nil || back != topo {
			t.Fatalf("ParseTopology(%q) = %+v; String %q reparses to %+v (%v)", in, topo, topo.String(), back, err)
		}
	})
}

// other returns a when v differs from it, else b: a value guaranteed
// to differ from v.
func other[T comparable](v, a, b T) T {
	if v != a {
		return a
	}
	return b
}

// familyMutations each change one fingerprinted field of a
// configuration other than its name and L2/L3 associativity.
var familyMutations = []func(c *Config){
	func(c *Config) { c.Hierarchy.L1I.Ways = other(c.Hierarchy.L1I.Ways, 2, 4) },
	func(c *Config) { c.Hierarchy.L1D.SizeBytes = other(c.Hierarchy.L1D.SizeBytes, 16<<10, 64<<10) },
	func(c *Config) { c.Hierarchy.L2.SizeBytes = other(c.Hierarchy.L2.SizeBytes, 128<<10, 512<<10) },
	func(c *Config) { c.Hierarchy.L3.LineBytes = other(c.Hierarchy.L3.LineBytes, 64, 128) },
	func(c *Config) { c.Hierarchy.L2.Name = other(c.Hierarchy.L2.Name, "l2", "mid") },
	func(c *Config) {
		c.Hierarchy.L2.Policy = other[cache.Policy](c.Hierarchy.L2.Policy, cache.SRRIP{}, cache.TreePLRU{})
	},
	func(c *Config) {
		c.Hierarchy.L3.Policy = other[cache.Policy](c.Hierarchy.L3.Policy, cache.SRRIP{}, cache.TreePLRU{})
	},
	func(c *Config) {
		if c.Hierarchy.Prefetcher == nil {
			c.Hierarchy.Prefetcher = &cache.NextLinePrefetcher{LineBytes: 64, Degree: 1}
		} else {
			c.Hierarchy.Prefetcher = nil
		}
	},
	func(c *Config) {
		if spec, _ := predictorToJSON(c.NewPredictor); spec == "static-taken" {
			c.NewPredictor = func() branch.Predictor { return branch.NewBimodal(10) }
		} else {
			c.NewPredictor = func() branch.Predictor { return branch.Static{} }
		}
	},
	func(c *Config) { c.BTBBits = other(c.BTBBits, 10, 12) },
	func(c *Config) { c.RASDepth = other(c.RASDepth, 8, 16) },
	func(c *Config) { c.Pipeline.MemLatency = other(c.Pipeline.MemLatency, 7, 8) },
	func(c *Config) { c.ClockHz = other(c.ClockHz, 1e9, 2e9) },
	func(c *Config) { c.UnifiedCodePath = !c.UnifiedCodePath },
}

// FuzzConfigJSON: decoding a configuration never panics; whatever it
// accepts validates and round-trips through MarshalJSON to the same
// Fingerprint; and the family key (WaysFamily) ignores exactly the
// name and the L2 and L3 associativity — a copy differing in those
// alone shares the key, a copy differing in one other field does not.
func FuzzConfigJSON(f *testing.F) {
	variants := configVariants()
	names := make([]string, 0, len(variants))
	for name := range variants {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		b, err := json.Marshal(variants[name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, uint8(i))
	}
	for i, s := range []string{
		``, `{}`, `null`, `[]`, `{"name":"x"}`, `{"l2":{"size_bytes":-1}}`,
		`{"name":"a","l1i":{"size_bytes":1024,"ways":2,"line_bytes":64},"l1d":{"size_bytes":1024,"ways":2,"line_bytes":64},` +
			`"l2":{"size_bytes":4096,"ways":4,"line_bytes":64,"policy":"random:seed=9"},"l3":{"size_bytes":3072,"ways":3,"line_bytes":64,"policy":"plru"},` +
			`"prefetcher":"stride:64:3","predictor":"tournament:10[ignored]","btb_bits":8,"ras_depth":4,` +
			`"pipeline":{"Width":4,"MispredictPenalty":15,"L2HitLatency":10,"L3HitLatency":30,"MemLatency":200,"FetchMissPenalty":8,"WalkPenalty":30,"ShortMLP":2},"clock_hz":1e9}`,
		`{"name":"a","predictor":"perceptron:x:1"}`, `{"prefetcher":"nextline:64"}`, `{"unknown":1}`,
	} {
		f.Add([]byte(s), uint8(i))
	}
	f.Fuzz(func(t *testing.T, in []byte, mut uint8) {
		var c Config
		if err := c.UnmarshalJSON(in); err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted %s, which does not validate: %v", in, err)
		}
		out, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("accepted %s, which does not encode: %v", in, err)
		}
		var back Config
		if err := back.UnmarshalJSON(out); err != nil {
			t.Fatalf("%s re-encodes as %s, which does not decode: %v", in, out, err)
		}
		if back.Fingerprint() != c.Fingerprint() {
			t.Fatalf("%s round-trips to fingerprint\n%s\nwant\n%s", in, back.Fingerprint(), c.Fingerprint())
		}
		ways := c
		ways.Name += "+ways"
		ways.Hierarchy.L2.Ways += 1 + int(mut%4)
		ways.Hierarchy.L3.Ways *= 2
		if ways.WaysFamily() != c.WaysFamily() {
			t.Fatalf("%s: a copy differing in name and L2/L3 ways has another family key", in)
		}
		diff := c
		familyMutations[int(mut)%len(familyMutations)](&diff)
		if diff.WaysFamily() == c.WaysFamily() {
			t.Fatalf("%s: mutation %d leaves the family key unchanged", in, int(mut)%len(familyMutations))
		}
	})
}

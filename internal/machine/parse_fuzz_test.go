package machine

import "testing"

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

package cliflags

import (
	"testing"

	speckit "repro"
)

// normalized is the scenario the campaign actually runs: the knobs after
// the option defaults that fold every spelling of one scenario together.
func normalized(sc speckit.Scenario) speckit.Scenario {
	return sc.Apply(speckit.Options{}).Normalized().Scenario()
}

// FuzzParseScenario: the -scenario parser never panics, and whatever it
// accepts round-trips through the canonical String to the same
// normalized options.
func FuzzParseScenario(f *testing.F) {
	for _, s := range []string{
		"", "exact", "sampled", "analytic", "sampling=default", "sampling=131072/4096/4096",
		"exact,sampling=262144/8192/8192", "sampled,j-pair=4", "analytic,j-pair=8",
		"rate=4", "rate=1", "j-pair=-2", "exact,rate=4,topo=4P4E-random", "topo=2P2E-best",
		"fidelity=sampled", "fidelity=", "topo=", " Exact , Rate=2 ", "rate=2,rate=3",
		"turbo", "exact=1", "analytic,rate=4", "sampled,topo=4P4E-random", "topo=ɐɐɐɐ4P4E-x",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sc, err := ParseScenario(in)
		if err != nil {
			return
		}
		back, err := ParseScenario(sc.String())
		if err != nil {
			t.Fatalf("ParseScenario(%q) = %+v; String %q does not reparse: %v", in, sc, sc.String(), err)
		}
		if got, want := normalized(back), normalized(sc); got != want {
			t.Fatalf("ParseScenario(%q) normalizes to %+v; String %q reparses to %+v", in, want, sc.String(), got)
		}
	})
}

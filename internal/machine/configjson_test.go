package machine

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
)

// configVariants is a matrix of configurations covering every component
// spec the JSON form supports.
func configVariants() map[string]Config {
	variants := map[string]Config{
		"haswell":        Haswell(),
		"haswell-scaled": HaswellScaled(),
	}
	srrip := HaswellScaled()
	srrip.Name = "scaled-srrip-l3"
	srrip.Hierarchy.L3.Policy = cache.SRRIP{}
	variants["srrip-l3"] = srrip

	plru := HaswellScaled()
	plru.Name = "scaled-plru-l2"
	plru.Hierarchy.L2.Policy = cache.TreePLRU{}
	variants["plru-l2"] = plru

	random := HaswellScaled()
	random.Name = "scaled-random-l3"
	random.Hierarchy.L3.Policy = cache.Random{Seed: 42}
	variants["random-l3"] = random

	pf := HaswellScaled()
	pf.Name = "scaled-stride-pf"
	pf.Hierarchy.Prefetcher = &cache.StridePrefetcher{LineBytes: 64, Degree: 2}
	variants["stride-pf"] = pf

	nl := HaswellScaled()
	nl.Name = "scaled-nextline-pf"
	nl.Hierarchy.Prefetcher = &cache.NextLinePrefetcher{LineBytes: 64, Degree: 1}
	variants["nextline-pf"] = nl

	for name, newPred := range map[string]func() branch.Predictor{
		"static":          func() branch.Predictor { return branch.Static{} },
		"bimodal":         func() branch.Predictor { return branch.NewBimodal(12) },
		"gshare":          func() branch.Predictor { return branch.NewGshare(14, 12) },
		"two-level-local": func() branch.Predictor { return branch.NewTwoLevelLocal(10, 10) },
		"tournament":      func() branch.Predictor { return branch.NewTournament(13) },
		"perceptron":      func() branch.Predictor { return branch.NewPerceptron(10, 24) },
	} {
		c := HaswellScaled()
		c.Name = "scaled-" + name
		c.NewPredictor = newPred
		variants["pred-"+name] = c
	}
	return variants
}

// TestConfigJSONFingerprintStable is the satellite's acceptance gate: a
// configuration that round-trips through JSON keeps its exact
// fingerprint — and therefore derives the same result-cache content
// keys — and re-encodes to identical bytes.
func TestConfigJSONFingerprintStable(t *testing.T) {
	for name, cfg := range configVariants() {
		t.Run(name, func(t *testing.T) {
			data, err := json.Marshal(cfg)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var got Config
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatalf("unmarshal: %v\n%s", err, data)
			}
			if got.Fingerprint() != cfg.Fingerprint() {
				t.Errorf("fingerprint drifted across the JSON round-trip:\n got %s\nwant %s",
					got.Fingerprint(), cfg.Fingerprint())
			}
			again, err := json.Marshal(got)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if string(again) != string(data) {
				t.Errorf("re-encoded bytes differ:\n got %s\nwant %s", again, data)
			}
		})
	}
}

// TestConfigJSONValidatesOnDecode: a structurally well-formed document
// describing an invalid machine is rejected at decode time.
func TestConfigJSONValidatesOnDecode(t *testing.T) {
	base, err := json.Marshal(HaswellScaled())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(m map[string]json.RawMessage){
		"zero-clock": func(m map[string]json.RawMessage) {
			m["clock_hz"] = json.RawMessage("0")
		},
		"bad-line": func(m map[string]json.RawMessage) {
			var l map[string]any
			json.Unmarshal(m["l3"], &l)
			l["line_bytes"] = 48 // not a power of two
			raw, _ := json.Marshal(l)
			m["l3"] = raw
		},
		"unknown-field": func(m map[string]json.RawMessage) {
			m["l4"] = json.RawMessage(`{}`)
		},
		"unknown-policy": func(m map[string]json.RawMessage) {
			var l map[string]any
			json.Unmarshal(m["l3"], &l)
			l["policy"] = "mru"
			raw, _ := json.Marshal(l)
			m["l3"] = raw
		},
		"unknown-predictor": func(m map[string]json.RawMessage) {
			m["predictor"] = json.RawMessage(`"neural:9000"`)
		},
		"bad-prefetcher": func(m map[string]json.RawMessage) {
			m["prefetcher"] = json.RawMessage(`"markov:1:2"`)
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			var m map[string]json.RawMessage
			if err := json.Unmarshal(base, &m); err != nil {
				t.Fatal(err)
			}
			mutate(m)
			raw, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			var cfg Config
			if err := json.Unmarshal(raw, &cfg); err == nil {
				t.Fatalf("decode accepted an invalid config: %s", raw)
			}
		})
	}
}

func TestApplyAxis(t *testing.T) {
	base := HaswellScaled()
	got, err := ApplyAxis(base, "l3.size", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hierarchy.L3.SizeBytes != 4<<20 {
		t.Errorf("l3.size = %d, want %d", got.Hierarchy.L3.SizeBytes, 4<<20)
	}
	if base.Hierarchy.L3.SizeBytes != 2<<20 {
		t.Error("ApplyAxis mutated the base config")
	}
	if err := got.Validate(); err != nil {
		t.Errorf("swept config does not validate: %v", err)
	}

	got, err = ApplyAxis(base, "line", 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []cache.Config{
		got.Hierarchy.L1I, got.Hierarchy.L1D, got.Hierarchy.L2, got.Hierarchy.L3,
	} {
		if l.LineBytes != 128 {
			t.Errorf("level %s line = %d, want 128", l.Name, l.LineBytes)
		}
	}

	if _, err := ApplyAxis(base, "l5.size", 1024); err == nil ||
		!strings.Contains(err.Error(), "unknown axis parameter") {
		t.Errorf("unknown param error = %v", err)
	}
	if _, err := ApplyAxis(base, "l3.ways", 0); err == nil {
		t.Error("non-positive axis value accepted")
	}
	// Values past any real part are refused before they can size a
	// simulated structure.
	for param, v := range map[string]int64{"l3.size": 2 << 30, "l2.ways": 1 << 20, "line": 1 << 20, "ras.depth": 1 << 40} {
		if _, err := ApplyAxis(base, param, v); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%s=%d: error = %v", param, v, err)
		}
	}

	// Distinct axis values must yield distinct fingerprints (distinct
	// result-cache keyspaces), or a sweep would alias its cells.
	a, _ := ApplyAxis(base, "l3.ways", 8)
	b, _ := ApplyAxis(base, "l3.ways", 16)
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different axis values share a fingerprint")
	}
}

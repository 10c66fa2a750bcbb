package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/subset"
)

// scale selects a subsystem's size within a workload: full on the
// workload that exercises it, mini on the others.
type scale bool

const (
	mini scale = false
	full scale = true
)

// baseWindow is the campaign instruction window per pair before the
// seed's offset: four sampling periods, so the sampled tier really
// samples instead of falling back to exact below two. At three, which
// windows it samples moves its error by up to 8% with the seed.
const baseWindow = 1 << 20

var tiers = []machine.Fidelity{machine.FidelityExact, machine.FidelitySampled, machine.FidelityAnalytic}

// campaign is the paper pipeline over one pair set: Characterize at
// every tier, then Subset over the CPU2017 ref rate and speed
// mini-suites. A pass runs the pairs in passRounds chunks, one per
// round, each chunk at every tier with a fresh cache; the first pass's
// results make up the campaign that Subset and the tier errors use.
type campaign struct {
	pairs  []profile.Pair // in canonical order
	chunks [][]int        // pair indices of each chunk, in the seed's order
	window uint64
	// chars holds each tier's first-pass results in canonical order;
	// later passes are checked against them.
	chars   map[machine.Fidelity][]core.Characteristics
	chosenK map[machine.Fidelity]map[string]int
	// subsetMS is the exact tier's Subset time.
	subsetMS float64
}

// newCampaign selects the pairs: at full scale all 194 CPU2017 pairs
// (test, train and ref) plus CPU2006 ref, at mini scale the CPU2017 ref
// pairs alone.
func newCampaign(r *run, sc scale) *campaign {
	pairs := profile.ExpandSuite(profile.CPU2017(), profile.Ref)
	if sc == full {
		pairs = nil
		for _, size := range []profile.InputSize{profile.Test, profile.Train, profile.Ref} {
			pairs = append(pairs, profile.ExpandSuite(profile.CPU2017(), size)...)
		}
		pairs = append(pairs, profile.ExpandSuite(profile.CPU2006(), profile.Ref)...)
	}
	c := &campaign{
		pairs: pairs, chunks: chunkIndices(r, "campaign", len(pairs)),
		window:  baseWindow + r.windowOffset(),
		chars:   map[machine.Fidelity][]core.Characteristics{},
		chosenK: map[machine.Fidelity]map[string]int{},
	}
	for _, tier := range tiers {
		c.chars[tier] = make([]core.Characteristics, len(pairs))
	}
	return c
}

// chunkIndices splits n items into passRounds chunks by stride, so every
// chunk holds a like mix of suites, sizes and applications and the seed
// never changes which items share a chunk. The seed orders the chunks
// and the items within each.
func chunkIndices(r *run, tag string, n int) [][]int {
	chunks := make([][]int, passRounds)
	for i := 0; i < n; i++ {
		chunks[i%passRounds] = append(chunks[i%passRounds], i)
	}
	r.shuffle(tag, len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
	for k, ch := range chunks {
		r.shuffle(tag+"/"+strconv.Itoa(k), len(ch), func(i, j int) { ch[i], ch[j] = ch[j], ch[i] })
	}
	return chunks
}

// ratePairs are the 36 CPU2017 rate-int and rate-fp ref pairs.
func ratePairs() []profile.Pair {
	ref := profile.ExpandSuite(profile.CPU2017(), profile.Ref)
	return append(profile.FilterSuite(ref, profile.RateInt), profile.FilterSuite(ref, profile.RateFP)...)
}

// round characterizes round's chunk at every tier, samples each tier's
// throughput and checks the results: in the first pass it keeps them,
// in later ones it compares them with the first. The last round of the
// first pass runs Subset over the whole campaign.
func (c *campaign) round(r *run, round int, tr *obs.Trace) error {
	idx := c.chunks[round%passRounds]
	pairs := make([]profile.Pair, len(idx))
	for i, j := range idx {
		pairs[i] = c.pairs[j]
	}
	for _, tier := range tiers {
		opt := core.Options{
			Instructions: c.window,
			Parallelism:  measureParallelism,
			Cache:        sched.NewCache(),
			Fidelity:     tier,
			Trace:        tr,
		}
		runtime.GC()
		r.probe()
		start := cpuTime()
		chars, err := core.Characterize(pairs, opt)
		cpu := cpuTime() - start
		r.op(err, "campaign %s round %d", tier, round)
		if err != nil {
			return err
		}
		r.rate(tier.String()+"_minstr_per_ref_s", "Minstr/ref-s", float64(len(pairs))*float64(c.window)/cpu.Seconds()/1e6)

		what := fmt.Sprintf("campaign %s round %d", tier, round)
		checkChars(r, what, pairs, chars)
		if tier == machine.FidelitySampled {
			sampled := 0
			for i := range chars {
				if chars[i].Sampling != nil && chars[i].Sampling.Windows > 0 {
					sampled++
				}
			}
			r.check(sampled == len(chars), "%s: %d of %d pairs sampled (window %d)", what, sampled, len(chars), c.window)
		}
		kept := c.chars[tier]
		if round < passRounds {
			for i, j := range idx {
				kept[j] = chars[i]
			}
			continue
		}
		first := make([]core.Characteristics, len(idx))
		for i, j := range idx {
			first[i] = kept[j]
		}
		r.check(digest(first) == digest(chars), "%s: results differ from the first pass", what)
	}
	if round == passRounds-1 {
		return c.subset(r)
	}
	return nil
}

// subset runs Subset at every tier over the first pass's results.
func (c *campaign) subset(r *run) error {
	for _, tier := range tiers {
		chosenK := map[string]int{}
		start := time.Now()
		for _, s := range subsetSuites(c.chars[tier]) {
			res, err := subset.Compute(s.chars, subset.Options{})
			r.op(err, "subset %s %s", s.name, tier)
			if err != nil {
				return err
			}
			chosenK[s.name] = res.ChosenK
		}
		if tier == machine.FidelityExact {
			c.subsetMS = time.Since(start).Seconds() * 1e3
		}
		c.chosenK[tier] = chosenK
	}
	return nil
}

// report sets each cheaper tier's error against the exact tier and
// records the exact digest and the chosen subset sizes; it follows the
// first pass.
func (c *campaign) report(r *run) {
	exact := c.chars[machine.FidelityExact]
	for _, tier := range tiers {
		name := tier.String()
		if tier != machine.FidelityExact {
			r.set(name+"_err_pp", "pp", tierError(exact, c.chars[tier]))
		}
		var ks []string
		for suite, k := range c.chosenK[tier] {
			ks = append(ks, fmt.Sprintf("%s=%d", suite, k))
			r.fact("chosen_k."+suite+"."+name, k)
		}
		sort.Strings(ks)
		fmt.Printf("subset %s: chosen K %s\n", name, strings.Join(ks, " "))
	}
	r.fact("campaign.window", c.window)
	r.fact("campaign.pairs", len(c.pairs))
	r.repeatFact("campaign.exact_digest", digest(exact))
}

type namedChars struct {
	name  string
	chars []core.Characteristics
}

// subsetSuites splits the CPU2017 ref results into the rate and speed
// mini-suites the paper subsets; a suite with fewer than two pairs is
// skipped.
func subsetSuites(chars []core.Characteristics) []namedChars {
	var rate, speed []core.Characteristics
	for _, c := range chars {
		if c.Pair.Size != profile.Ref {
			continue
		}
		switch c.Pair.App.Suite {
		case profile.RateInt, profile.RateFP:
			rate = append(rate, c)
		case profile.SpeedInt, profile.SpeedFP:
			speed = append(speed, c)
		}
	}
	var out []namedChars
	for _, s := range []namedChars{{"rate", rate}, {"speed", speed}} {
		if len(s.chars) >= 2 {
			out = append(out, s)
		}
	}
	return out
}

// checkChars checks a result set covers the pairs in order with finite
// headline metrics.
func checkChars(r *run, what string, pairs []profile.Pair, chars []core.Characteristics) {
	ok := len(chars) == len(pairs)
	for i := 0; ok && i < len(chars); i++ {
		c := &chars[i]
		ok = c.Pair.Name() == pairs[i].Name() && c.Pair.Size == pairs[i].Size
		for _, v := range []float64{c.IPC, c.L1MissPct, c.L2MissPct, c.L3MissPct, c.MispredictPct} {
			ok = ok && !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
		}
	}
	r.check(ok, "%s: %d results for %d pairs, in order and finite", what, len(chars), len(pairs))
}

// pairID names a pair uniquely across sizes and suites.
func pairID(c *core.Characteristics) string {
	return c.Pair.App.Name + "/" + c.Pair.Size.String() + "/" + c.Pair.Input
}

// tierError is the mean absolute difference in percentage points between
// a tier and the exact tier over the L1, L2 and L3 miss rates and the
// mispredict rate of every pair.
func tierError(exact, tier []core.Characteristics) float64 {
	byID := make(map[string]*core.Characteristics, len(exact))
	for i := range exact {
		byID[pairID(&exact[i])] = &exact[i]
	}
	sum, n := 0.0, 0
	for i := range tier {
		e := byID[pairID(&tier[i])]
		if e == nil {
			continue
		}
		t := &tier[i]
		for _, d := range []float64{t.L1MissPct - e.L1MissPct, t.L2MissPct - e.L2MissPct,
			t.L3MissPct - e.L3MissPct, t.MispredictPct - e.MispredictPct} {
			sum += math.Abs(d)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// digest hashes results in pair-ID order, so it depends on what was
// computed and not on the seed's pair order.
func digest(chars []core.Characteristics) string {
	sorted := append([]core.Characteristics(nil), chars...)
	sort.Slice(sorted, func(i, j int) bool { return pairID(&sorted[i]) < pairID(&sorted[j]) })
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := range sorted {
		enc.Encode(sorted[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

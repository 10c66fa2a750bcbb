package core

import (
	"context"
	"strings"
	"sync"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sched"
)

// maxSiblings caps how many configurations share one stream pass. Each
// sibling adds up to a full L2 and a full L3 to the pass, so the cap
// bounds its memory.
const maxSiblings = 8

// FamilyKey reports whether campaigns under opt can share stream passes
// and, if so, the key that groups them: campaigns with equal keys
// differ at most in the machine's name and L2 and L3 associativity, so
// every level above the L2 sees the same stream
// (machine.Config.WaysFamily).
func FamilyKey(opt Options) (string, bool) {
	opt = opt.withDefaults()
	if !sharesPasses(&opt) {
		return "", false
	}
	return keyHead(opt.Machine.WaysFamily(), &opt), true
}

// sharesPasses reports whether opt runs on the exact single-stream
// tier, the only one whose pass siblings can share. Sampled windows,
// analytic predictions, intra-pair windows and rate or topology
// scenarios run per cell.
func sharesPasses(opt *Options) bool {
	return opt.Fidelity == machine.FidelityExact && opt.IntraPairWorkers <= 1 &&
		opt.RateCopies == 0 && !opt.Topology.Enabled()
}

// Sibling is one member of a shared-pass family: a label that names it
// in traces and the machine it runs on.
type Sibling struct {
	Label   string
	Machine machine.Config
}

// CharacterizeFamily characterizes pairs on every sibling's machine
// under the campaign options opt and returns each sibling's results, in
// sibling order. Characterize is its one-sibling case. On the tier that
// shares passes (FamilyKey), the siblings' machines must differ only in
// name and L2 and L3 associativity, and one stream pass
// (machine.RunFamily) simulates up to maxSiblings of them at once.
//
// Every (sibling, pair) cell is its own campaign task. It is keyed,
// served from and written to the cache tiers, traced and counted under
// its own key, exactly as Characterize would on that sibling's machine.
// The first cell of a pass's group to miss every cache tier runs the
// pass for the whole group. Its pair span holds the stage spans; the
// other cells' pair spans carry shared_pass=<its label>. Tasks are
// queued sibling by sibling, so workers pick up different pairs' passes
// instead of waiting on one.
func CharacterizeFamily(pairs []profile.Pair, opt Options, sibs []Sibling) ([][]Characteristics, error) {
	if len(sibs) == 0 {
		return nil, nil
	}
	opt = opt.withDefaults()
	if err := validateFidelity(&opt); err != nil {
		return nil, err
	}
	if opt.Store != nil {
		if opt.Cache == nil {
			opt.Cache = sched.NewCache()
		}
		opt.Cache.SetBackend(opt.Store, CharacteristicsCodec{})
	}
	opts := make([]Options, len(sibs))
	labels := make([]string, len(sibs))
	for i, s := range sibs {
		o := opt
		o.Machine = s.Machine
		opts[i], labels[i] = o.withDefaults(), s.Label
	}

	// passes[g][j] is pair j's pass over sibling group g; nil where the
	// group's members run alone.
	groups := (len(sibs) + maxSiblings - 1) / maxSiblings
	passes := make([][]*sharedPass, groups)
	for g := range passes {
		lo := g * maxSiblings
		hi := min(lo+maxSiblings, len(sibs))
		if hi-lo < 2 || !sharesPasses(&opt) {
			continue
		}
		passes[g] = make([]*sharedPass, len(pairs))
		for j := range pairs {
			passes[g][j] = &sharedPass{pair: pairs[j], labels: labels[lo:hi], opts: opts[lo:hi]}
		}
	}
	tasks := make([]sched.Task[Characteristics], 0, len(sibs)*len(pairs))
	for i := range sibs {
		o := &opts[i]
		prefix := ""
		if opt.Cache != nil {
			prefix = campaignKeyPrefix(o)
		}
		for j := range pairs {
			pair := pairs[j]
			t := sched.Task[Characteristics]{Name: pair.Name()}
			if opt.Cache != nil {
				t.Key = pairKey(prefix, &pair)
			}
			if g := passes[i/maxSiblings]; g != nil {
				pass, member := g[j], i%maxSiblings
				t.Run = func(ctx context.Context) (Characteristics, error) { return pass.result(ctx, member) }
			} else {
				t.Run = func(ctx context.Context) (Characteristics, error) {
					c, err := runPair(ctx, pair, *o)
					if err != nil {
						return Characteristics{}, err
					}
					return *c, nil
				}
			}
			tasks = append(tasks, t)
		}
	}
	span := opt.Trace.Start("campaign").
		SetAttr("pairs", len(pairs)).
		SetAttr("machine", opts[0].Machine.Name).
		SetAttr("instructions", opt.Instructions).
		SetAttr("sampling", opt.Sampling.String()).
		SetAttr("fidelity", opt.Fidelity.String())
	if len(sibs) > 1 {
		span.SetAttr("siblings", strings.Join(labels, ";"))
	}
	defer span.Finish()
	flat, err := sched.Run(opt.Context, tasks, sched.Options{
		Workers:  opt.Parallelism,
		Cache:    opt.Cache,
		Progress: opt.Progress,
		Span:     span,
	})
	if err != nil {
		return nil, err
	}
	out := make([][]Characteristics, len(sibs))
	for i := range out {
		out[i] = flat[i*len(pairs) : (i+1)*len(pairs)]
	}
	return out, nil
}

// sharedPass is one pair's stream pass over a group of siblings. The
// first member whose cell misses the cache runs it over the whole
// group; every other member that misses waits for it.
type sharedPass struct {
	pair   profile.Pair
	labels []string
	opts   []Options

	mu     sync.Mutex
	runner int           // the member running the pass
	done   chan struct{} // nil until the pass starts, closed when it ends
	res    []*Characteristics
	err    error
}

// result returns member i's cell.
func (p *sharedPass) result(ctx context.Context, i int) (Characteristics, error) {
	p.mu.Lock()
	first := p.done == nil
	if first {
		p.done, p.runner = make(chan struct{}), i
	}
	p.mu.Unlock()
	if first {
		p.res, p.err = characterizePass(ctx, p.pair, p.opts)
		close(p.done)
	} else {
		select {
		case <-p.done:
		case <-ctx.Done():
			return Characteristics{}, ctx.Err()
		}
		if p.err == nil {
			obs.SpanFromContext(ctx).SetAttr("shared_pass", p.labels[p.runner])
		}
	}
	if p.err != nil {
		return Characteristics{}, p.err
	}
	return *p.res[i], nil
}

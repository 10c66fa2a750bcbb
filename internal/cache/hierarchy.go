package cache

// Level identifies a position in the three-level hierarchy.
type Level int

const (
	// L1 is the first (closest) level; the hierarchy keeps separate L1
	// instruction and data caches.
	L1 Level = iota
	// L2 is the private unified mid-level cache.
	L2
	// L3 is the shared last-level cache.
	L3
	numLevels
)

// NumLevels is the number of data-path cache levels.
const NumLevels = int(numLevels)

// String returns "l1", "l2" or "l3".
func (l Level) String() string {
	switch l {
	case L1:
		return "l1"
	case L2:
		return "l2"
	case L3:
		return "l3"
	default:
		return "l?"
	}
}

// HitLevel reports where a demand access was satisfied.
type HitLevel int

const (
	// HitL1 means the access hit in the level-one cache.
	HitL1 HitLevel = iota
	// HitL2 means it missed L1 and hit L2.
	HitL2
	// HitL3 means it missed L1 and L2 and hit L3.
	HitL3
	// HitMemory means it missed all cache levels.
	HitMemory
)

// String names the hit level.
func (h HitLevel) String() string {
	switch h {
	case HitL1:
		return "l1_hit"
	case HitL2:
		return "l2_hit"
	case HitL3:
		return "l3_hit"
	case HitMemory:
		return "mem"
	default:
		return "hit?"
	}
}

// HierarchyConfig configures a three-level hierarchy.
type HierarchyConfig struct {
	L1I, L1D, L2, L3 Config
	// Prefetcher, when non-nil, is attached to the L2 data path.
	Prefetcher Prefetcher
}

// Validate checks all level configurations.
func (h HierarchyConfig) Validate() error {
	for _, c := range []Config{h.L1I, h.L1D, h.L2, h.L3} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Hierarchy is a private L1I/L1D + private L2 + (possibly shared) L3 cache
// stack. L3 may be shared between several hierarchies to model multi-core
// contention: construct one hierarchy per core with NewShared.
type Hierarchy struct {
	l1i, l1d, l2 *Cache
	l3           *Cache
	pf           Prefetcher
	// lower are the sibling lower stacks (see AddSibling), fed the same
	// L1 miss stream as l2; they never affect the reported hit level.
	lower []lowerStack
}

// lowerStack is one L2 of a hierarchy's siblings with the last levels
// under it. A nil l2 stands for the hierarchy's own L2.
type lowerStack struct {
	l2  *Cache
	l3s []*Cache
}

// NewHierarchy builds a hierarchy with a private L3.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return NewShared(cfg, New(cfg.L3))
}

// NewShared builds a hierarchy whose last level is the supplied (possibly
// shared) L3 cache. cfg.L3 is ignored.
func NewShared(cfg HierarchyConfig, l3 *Cache) *Hierarchy {
	return &Hierarchy{
		l1i: New(cfg.L1I),
		l1d: New(cfg.L1D),
		l2:  New(cfg.L2),
		l3:  l3,
		pf:  freshPrefetcher(cfg.Prefetcher),
	}
}

// freshPrefetcher returns a stateless copy of the package's own
// prefetchers, so every hierarchy built from one configuration starts
// from the same detector state and no two hierarchies share a scratch
// buffer. Other implementations are used as given.
func freshPrefetcher(pf Prefetcher) Prefetcher {
	switch p := pf.(type) {
	case *NextLinePrefetcher:
		return &NextLinePrefetcher{LineBytes: p.LineBytes, Degree: p.Degree}
	case *StridePrefetcher:
		return &StridePrefetcher{LineBytes: p.LineBytes, Degree: p.Degree}
	}
	return pf
}

// AddSibling attaches a sibling lower stack: the last level l3 under
// the L2 l2, where a nil l2 (or the hierarchy's own) means the
// hierarchy's own L2. A sibling L2 sees exactly the accesses the L2
// sees — every L1D demand miss, prefetch fill and (on the unified code
// path) L1I miss — and each of its misses reaches the last levels under
// it, as each miss of the own L2 reaches l3 and the siblings under it.
// Siblings passing the same l2 share it. The own L2 and L3 alone decide
// the hit level the hierarchy reports, and nothing above the L2 depends
// on its outcome in a private hierarchy, so every sibling cache ends a
// run in exactly the state, with exactly the statistics, it would have
// at its level of a hierarchy of its own. A run over several siblings
// thus measures several L2/L3 configurations in one pass. Sibling
// caches are driven through AccessHot on every path (its transitions
// equal Access's) and are reset with the hierarchy. A shared L3's
// back-invalidations reach the private levels, so siblings are meant
// for private hierarchies only.
func (h *Hierarchy) AddSibling(l2, l3 *Cache) {
	if l2 == h.l2 {
		l2 = nil
	}
	for i := range h.lower {
		if h.lower[i].l2 == l2 {
			h.lower[i].l3s = append(h.lower[i].l3s, l3)
			return
		}
	}
	h.lower = append(h.lower, lowerStack{l2: l2, l3s: []*Cache{l3}})
}

// fanOut sends an access that missed the L1 to every sibling lower
// stack; l2miss reports whether it missed the hierarchy's own L2, whose
// sibling last levels see it only then. The walks call it only when
// siblings are attached, so a hierarchy without them pays one
// predictable branch per L1 miss.
func (h *Hierarchy) fanOut(addr uint64, kind AccessKind, l2miss bool) {
	for i := range h.lower {
		st := &h.lower[i]
		miss := l2miss
		if st.l2 != nil {
			miss = !st.l2.AccessHot(addr, kind)
		}
		if !miss {
			continue
		}
		for _, c := range st.l3s {
			c.AccessHot(addr, kind)
		}
	}
}

// Cache returns the cache at the given level of the data path (L1 returns
// the L1D cache).
func (h *Hierarchy) Cache(l Level) *Cache {
	switch l {
	case L1:
		return h.l1d
	case L2:
		return h.l2
	case L3:
		return h.l3
	default:
		panic("cache: invalid level")
	}
}

// L1I returns the instruction cache.
func (h *Hierarchy) L1I() *Cache { return h.l1i }

// Fetch performs an instruction fetch for pc and reports where it hit.
func (h *Hierarchy) Fetch(pc uint64) HitLevel {
	if h.l1i.Access(pc, AccessFetch) {
		return HitL1
	}
	level := HitMemory
	switch {
	case h.l2.Access(pc, AccessFetch):
		level = HitL2
	case h.l3.Access(pc, AccessFetch):
		level = HitL3
	}
	if h.lower != nil {
		h.fanOut(pc, AccessFetch, level != HitL2)
	}
	return level
}

// Data performs a demand data access (load or store, per kind) and reports
// where it hit. Misses propagate down the hierarchy with fills at every
// level (inclusive behaviour). When a prefetcher is attached, it observes
// L1 misses and issues prefetch fills into L2/L3.
func (h *Hierarchy) Data(addr uint64, kind AccessKind) HitLevel {
	if h.l1d.Access(addr, kind) {
		return HitL1
	}
	level := HitMemory
	switch {
	case h.l2.Access(addr, kind):
		level = HitL2
	case h.l3.Access(addr, kind):
		level = HitL3
	}
	if h.lower != nil {
		h.fanOut(addr, kind, level != HitL2)
	}
	if h.pf != nil {
		for _, p := range h.pf.Observe(addr) {
			miss := !h.l2.Access(p, AccessPrefetch)
			if miss {
				h.l3.Access(p, AccessPrefetch)
			}
			if h.lower != nil {
				h.fanOut(p, AccessPrefetch, miss)
			}
		}
	}
	return level
}

// FetchHot is Fetch through the batched-kernel fast path: the L1I probe
// uses the fetch memo short-circuit (see Cache.FetchHot) and lower levels
// use AccessHot. State transitions and statistics are bit-identical to
// Fetch; callers must not mix the two on one hierarchy.
func (h *Hierarchy) FetchHot(pc uint64) HitLevel {
	if h.l1i.FetchHot(pc) {
		return HitL1
	}
	level := HitMemory
	switch {
	case h.l2.AccessHot(pc, AccessFetch):
		level = HitL2
	case h.l3.AccessHot(pc, AccessFetch):
		level = HitL3
	}
	if h.lower != nil {
		h.fanOut(pc, AccessFetch, level != HitL2)
	}
	return level
}

// DataHot is Data through the batched-kernel fast path (AccessHot at
// every level, including prefetch fills). State transitions and
// statistics are bit-identical to Data.
func (h *Hierarchy) DataHot(addr uint64, kind AccessKind) HitLevel {
	if h.l1d.DemandHot(addr, kind) {
		return HitL1
	}
	return h.DataHotMiss(addr, kind)
}

// DataHotMiss completes a demand access that the caller already probed
// (and missed) in L1D via DemandHot: the L2 and L3 lookups plus the
// prefetcher observation — exactly the non-L1 arm of DataHot. Splitting
// the access this way lets the batched kernel's data sweep keep the
// dominant L1-hit case down to a single call.
func (h *Hierarchy) DataHotMiss(addr uint64, kind AccessKind) HitLevel {
	level := HitMemory
	switch {
	case h.l2.AccessHot(addr, kind):
		level = HitL2
	case h.l3.AccessHot(addr, kind):
		level = HitL3
	}
	if h.lower != nil {
		h.fanOut(addr, kind, level != HitL2)
	}
	if h.pf != nil {
		for _, p := range h.pf.Observe(addr) {
			miss := !h.l2.AccessHot(p, AccessPrefetch)
			if miss {
				h.l3.AccessHot(p, AccessPrefetch)
			}
			if h.lower != nil {
				h.fanOut(p, AccessPrefetch, miss)
			}
		}
	}
	return level
}

// Reset clears the private levels and statistics. The shared L3 is reset
// too; when sharing an L3 across hierarchies reset it only once.
func (h *Hierarchy) Reset() {
	h.l1i.Reset()
	h.l1d.Reset()
	h.l2.Reset()
	h.l3.Reset()
	h.eachSibling((*Cache).Reset)
}

// eachSibling applies f to every sibling cache, each shared L2 once.
func (h *Hierarchy) eachSibling(f func(*Cache)) {
	for _, st := range h.lower {
		if st.l2 != nil {
			f(st.l2)
		}
		for _, c := range st.l3s {
			f(c)
		}
	}
}

// Prefetcher observes demand miss addresses and proposes line addresses to
// prefetch.
type Prefetcher interface {
	// Observe is called with the address of each L1 demand miss and
	// returns the addresses to prefetch (possibly none).
	Observe(addr uint64) []uint64
}

// NextLinePrefetcher prefetches the Degree sequentially following lines on
// every observed miss.
type NextLinePrefetcher struct {
	// LineBytes is the cache line size; it must match the hierarchy's.
	LineBytes int
	// Degree is how many consecutive lines to prefetch (default 1).
	Degree int

	buf []uint64
}

// Observe implements Prefetcher.
func (p *NextLinePrefetcher) Observe(addr uint64) []uint64 {
	d := p.Degree
	if d <= 0 {
		d = 1
	}
	p.buf = p.buf[:0]
	line := addr &^ uint64(p.LineBytes-1)
	for i := 1; i <= d; i++ {
		p.buf = append(p.buf, line+uint64(i*p.LineBytes))
	}
	return p.buf
}

// StridePrefetcher detects constant-stride streams with a small PC-less
// table of recent deltas and prefetches ahead of the detected stride.
type StridePrefetcher struct {
	// LineBytes is the cache line size.
	LineBytes int
	// Degree is how far ahead (in strides) to prefetch (default 2).
	Degree int

	last   uint64
	stride int64
	conf   int
	buf    []uint64
}

// Observe implements Prefetcher.
func (p *StridePrefetcher) Observe(addr uint64) []uint64 {
	p.buf = p.buf[:0]
	line := addr &^ uint64(p.LineBytes-1)
	if p.last != 0 {
		s := int64(line) - int64(p.last)
		if s == p.stride && s != 0 {
			if p.conf < 3 {
				p.conf++
			}
		} else {
			p.stride = s
			p.conf = 0
		}
	}
	p.last = line
	if p.conf >= 2 {
		d := p.Degree
		if d <= 0 {
			d = 2
		}
		for i := 1; i <= d; i++ {
			p.buf = append(p.buf, uint64(int64(line)+p.stride*int64(i)))
		}
	}
	return p.buf
}

// ResetStats zeroes statistics on all levels (including the shared L3)
// while keeping contents warm.
func (h *Hierarchy) ResetStats() {
	h.l1i.ResetStats()
	h.l1d.ResetStats()
	h.l2.ResetStats()
	h.l3.ResetStats()
	h.eachSibling((*Cache).ResetStats)
}

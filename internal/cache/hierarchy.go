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
	// siblings are alternative last levels fed the same L2 miss stream
	// as l3 (see AddSibling); they never affect the reported hit level.
	siblings []*Cache
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

// AddSibling attaches a sibling last level: a private cache that sees
// exactly the accesses the L3 sees — every L2 demand miss, L2 prefetch
// miss and (on the unified code path) L2 fetch miss — while the L3
// alone decides the hit level the hierarchy reports. Nothing above the
// L3 depends on its outcome in a private hierarchy, so a sibling ends a
// run in exactly the state, with exactly the statistics, it would have
// as this hierarchy's L3. A run over several siblings measures several
// last-level configurations in one pass. Siblings are reset with the
// hierarchy. A shared L3's back-invalidations reach the private levels,
// so siblings are meant for private hierarchies only.
func (h *Hierarchy) AddSibling(c *Cache) { h.siblings = append(h.siblings, c) }

// lastLevel sends an L2 miss to the L3 and every sibling through the
// reference Access path and reports whether the L3 hit.
func (h *Hierarchy) lastLevel(addr uint64, kind AccessKind) bool {
	for _, s := range h.siblings {
		s.Access(addr, kind)
	}
	return h.l3.Access(addr, kind)
}

// lastLevelHot is lastLevel through AccessHot.
func (h *Hierarchy) lastLevelHot(addr uint64, kind AccessKind) bool {
	for _, s := range h.siblings {
		s.AccessHot(addr, kind)
	}
	return h.l3.AccessHot(addr, kind)
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
	if h.l2.Access(pc, AccessFetch) {
		return HitL2
	}
	if h.lastLevel(pc, AccessFetch) {
		return HitL3
	}
	return HitMemory
}

// Data performs a demand data access (load or store, per kind) and reports
// where it hit. Misses propagate down the hierarchy with fills at every
// level (inclusive behaviour). When a prefetcher is attached, it observes
// L1 misses and issues prefetch fills into L2/L3.
func (h *Hierarchy) Data(addr uint64, kind AccessKind) HitLevel {
	level := HitMemory
	switch {
	case h.l1d.Access(addr, kind):
		level = HitL1
	case h.l2.Access(addr, kind):
		level = HitL2
	case h.lastLevel(addr, kind):
		level = HitL3
	}
	if level != HitL1 && h.pf != nil {
		for _, p := range h.pf.Observe(addr) {
			if !h.l2.Access(p, AccessPrefetch) {
				h.lastLevel(p, AccessPrefetch)
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
	if h.l2.AccessHot(pc, AccessFetch) {
		return HitL2
	}
	if h.lastLevelHot(pc, AccessFetch) {
		return HitL3
	}
	return HitMemory
}

// DataHot is Data through the batched-kernel fast path (AccessHot at
// every level, including prefetch fills). State transitions and
// statistics are bit-identical to Data.
func (h *Hierarchy) DataHot(addr uint64, kind AccessKind) HitLevel {
	level := HitMemory
	switch {
	case h.l1d.DemandHot(addr, kind):
		level = HitL1
	case h.l2.AccessHot(addr, kind):
		level = HitL2
	case h.lastLevelHot(addr, kind):
		level = HitL3
	}
	if level != HitL1 && h.pf != nil {
		for _, p := range h.pf.Observe(addr) {
			if !h.l2.AccessHot(p, AccessPrefetch) {
				h.lastLevelHot(p, AccessPrefetch)
			}
		}
	}
	return level
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
	case h.lastLevelHot(addr, kind):
		level = HitL3
	}
	if h.pf != nil {
		for _, p := range h.pf.Observe(addr) {
			if !h.l2.AccessHot(p, AccessPrefetch) {
				h.lastLevelHot(p, AccessPrefetch)
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
	for _, s := range h.siblings {
		s.Reset()
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
	for _, s := range h.siblings {
		s.ResetStats()
	}
}

package cache

import (
	"encoding/binary"
	"testing"

	"repro/internal/xrand"
)

// siblingSeed returns n random stream records in FuzzHierarchySiblings'
// format over a region a few times the fuzzed L3.
func siblingSeed(seed uint64, n int) []byte {
	rng := xrand.NewSplitMix64(seed)
	b := make([]byte, 0, 9*n)
	for i := 0; i < n; i++ {
		b = binary.LittleEndian.AppendUint64(b, rng.Uint64()%(1<<16))
		b = append(b, byte(rng.Uint64()))
	}
	return b
}

// FuzzHierarchySiblings drives a fuzzer-chosen data and fetch stream
// through a hierarchy carrying three sibling lower stacks, under one
// replacement policy at every level and no, next-line or stride
// prefetch. Every L2 and L3 associativity is fuzzer-chosen. The
// contract: each sibling's L2 and L3 end with exactly the statistics
// and fills of the L2 and L3 of a standalone hierarchy built from that
// sibling's configuration and fed the same stream, and the primary's
// reported hit levels are those of its own standalone twin.
func FuzzHierarchySiblings(f *testing.F) {
	for i := 0; i < 12; i++ {
		f.Add(siblingSeed(uint64(i), 1000), uint8(i), uint32(i)*0x9e3779b9)
	}
	f.Add([]byte{}, uint8(0), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, geom uint8, wayBits uint32) {
		pols := Policies()
		pol := pols[int(geom)%len(pols)]
		var pf Prefetcher
		switch geom / 4 % 3 {
		case 1:
			pf = &NextLinePrefetcher{LineBytes: 64, Degree: 2}
		case 2:
			pf = &StridePrefetcher{LineBytes: 64, Degree: 2}
		}
		// ways draws the next associativity in 1-8 from wayBits.
		ways := func() int {
			w := 1 << (wayBits & 3)
			wayBits >>= 2
			return w
		}
		mk := func() HierarchyConfig {
			return HierarchyConfig{
				L1I:        Config{Name: "l1i", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, Policy: pol},
				L1D:        Config{Name: "l1d", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, Policy: pol},
				L2:         Config{Name: "l2", SizeBytes: 4 << 10, Ways: ways(), LineBytes: 64, Policy: pol},
				L3:         Config{Name: "l3", SizeBytes: 16 << 10, Ways: ways(), LineBytes: 64, Policy: pol},
				Prefetcher: pf,
			}
		}
		cfgs := []HierarchyConfig{mk(), mk(), mk(), mk()}
		h := NewHierarchy(cfgs[0])
		// Siblings with one L2 associativity share one L2; those with
		// the primary's sit under its own, passed as nil or as itself.
		own := h.Cache(L2)
		l2s := map[int]*Cache{cfgs[0].L2.Ways: own}
		type sibling struct{ l2, l3 *Cache }
		sibs := make([]sibling, len(cfgs)-1)
		for i, c := range cfgs[1:] {
			l2 := l2s[c.L2.Ways]
			if l2 == nil {
				l2 = New(c.L2)
				l2s[c.L2.Ways] = l2
			}
			sibs[i] = sibling{l2, New(c.L3)}
			if l2 == own && geom&0x80 == 0 {
				l2 = nil
			}
			h.AddSibling(l2, sibs[i].l3)
		}
		alone := make([]*Hierarchy, len(cfgs))
		for i, c := range cfgs {
			alone[i] = NewHierarchy(c)
		}

		step := func(hh *Hierarchy, addr uint64, op byte) HitLevel {
			switch op {
			case 0:
				return hh.Fetch(addr)
			case 1:
				return hh.FetchHot(addr)
			case 2:
				return hh.Data(addr, AccessLoad)
			case 3:
				return hh.Data(addr, AccessStore)
			case 4:
				return hh.DataHot(addr, AccessLoad)
			case 5:
				return hh.DataHot(addr, AccessStore)
			}
			hh.ResetStats()
			return HitL1
		}
		for i := 0; i+9 <= len(data); i += 9 {
			addr := binary.LittleEndian.Uint64(data[i : i+8])
			op := data[i+8] % 7
			got := step(h, addr, op)
			if want := step(alone[0], addr, op); got != want {
				t.Fatalf("record %d: the hierarchy with siblings reported %v, its standalone twin %v", i/9, got, want)
			}
			for _, a := range alone[1:] {
				step(a, addr, op)
			}
		}
		for i, s := range sibs {
			for _, lv := range []struct {
				name      string
				got, want *Cache
			}{{"l2", s.l2, alone[i+1].Cache(L2)}, {"l3", s.l3, alone[i+1].Cache(L3)}} {
				if lv.got.Stats() != lv.want.Stats() || lv.got.LoadStats() != lv.want.LoadStats() ||
					lv.got.StoreStats() != lv.want.StoreStats() || lv.got.Fills() != lv.want.Fills() {
					t.Fatalf("sibling %d (%d-way L2, %d-way L3) %s: stats %+v fills %d, standalone %+v fills %d",
						i+1, cfgs[i+1].L2.Ways, cfgs[i+1].L3.Ways, lv.name,
						lv.got.Stats(), lv.got.Fills(), lv.want.Stats(), lv.want.Fills())
				}
			}
		}
	})
}

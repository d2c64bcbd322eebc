package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDirectMappedConflict(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 1024, LineBytes: 32, Assoc: 1})
	// Two addresses 1024 apart map to the same set and evict each other.
	if c.Read(0) {
		t.Fatal("cold read hit")
	}
	if !c.Read(0) {
		t.Fatal("warm read missed")
	}
	if c.Read(1024) {
		t.Fatal("conflicting read hit")
	}
	if c.Read(0) {
		t.Fatal("evicted line hit")
	}
	st := c.Stats()
	if st.ReadMisses != 3 || st.ReadHits != 1 {
		t.Fatalf("stats = %+v, want 3 misses 1 hit", st)
	}
}

func TestTwoWayAvoidsConflict(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 1024, LineBytes: 32, Assoc: 2})
	c.Read(0)
	c.Read(512) // same set in a 2-way 1KB cache, different way
	if !c.Read(0) || !c.Read(512) {
		t.Fatal("2-way cache should hold both conflicting lines")
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, 2 sets: set = (addr/32) % 2.
	c := New(Config{Name: "t", SizeBytes: 128, LineBytes: 32, Assoc: 2})
	c.Read(0)   // set 0, way A
	c.Read(64)  // set 0, way B
	c.Read(0)   // touch A (B is now LRU)
	c.Read(128) // set 0: evicts B (64)
	if !c.Read(0) {
		t.Fatal("MRU line evicted")
	}
	if c.Read(64) {
		t.Fatal("LRU line not evicted")
	}
}

func TestSameLineHits(t *testing.T) {
	c := New(DefaultL1D)
	c.Read(100 * 32)
	for off := uint64(0); off < 32; off += 8 {
		if !c.Read(100*32 + off) {
			t.Fatalf("offset %d within line missed", off)
		}
	}
}

func TestWriteAllocate(t *testing.T) {
	c := New(DefaultL1D)
	if c.Write(4096) {
		t.Fatal("cold write hit")
	}
	if !c.Read(4096) {
		t.Fatal("write did not allocate the line")
	}
	st := c.Stats()
	if st.WriteMisses != 1 || st.ReadHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFlush(t *testing.T) {
	c := New(DefaultL1D)
	c.Read(0)
	c.Flush()
	if c.Contains(0) {
		t.Fatal("flush left line resident")
	}
	if c.Stats().Accesses() != 0 {
		t.Fatal("flush did not clear stats")
	}
}

// referenceCache is a naive fully-explicit model used to cross-check the
// optimized implementation.
type referenceCache struct {
	sets     int
	assoc    int
	lineBits uint
	lines    [][]uint64 // per set, MRU first
	stats    Stats
}

func newReference(cfg Config) *referenceCache {
	lines := cfg.SizeBytes / cfg.LineBytes
	r := &referenceCache{sets: lines / cfg.Assoc, assoc: cfg.Assoc}
	for 1<<r.lineBits != cfg.LineBytes {
		r.lineBits++
	}
	r.lines = make([][]uint64, r.sets)
	return r
}

// accessCounted is access plus the statistics the cache keeps.
func (r *referenceCache) accessCounted(addr uint64, write bool) bool {
	hit := r.access(addr)
	switch {
	case hit && write:
		r.stats.WriteHits++
	case hit:
		r.stats.ReadHits++
	case write:
		r.stats.WriteMisses++
	default:
		r.stats.ReadMisses++
	}
	return hit
}

func (r *referenceCache) flush() {
	clear(r.lines)
	r.stats = Stats{}
}

func (r *referenceCache) access(addr uint64) bool {
	line := addr >> r.lineBits
	set := int(line % uint64(r.sets))
	ways := r.lines[set]
	for i, l := range ways {
		if l == line {
			copy(ways[1:i+1], ways[:i])
			ways[0] = line
			return true
		}
	}
	ways = append([]uint64{line}, ways...)
	if len(ways) > r.assoc {
		ways = ways[:r.assoc]
	}
	r.lines[set] = ways
	return false
}

// TestAgainstReferenceModel drives both implementations with random access
// streams over several geometries and demands identical hit/miss behaviour.
func TestAgainstReferenceModel(t *testing.T) {
	configs := []Config{
		{Name: "dm", SizeBytes: 1024, LineBytes: 32, Assoc: 1},
		{Name: "2w", SizeBytes: 2048, LineBytes: 32, Assoc: 2},
		{Name: "4w", SizeBytes: 4096, LineBytes: 64, Assoc: 4},
		DefaultL1D,
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, cfg := range configs {
			c := New(cfg)
			ref := newReference(cfg)
			for i := 0; i < 2000; i++ {
				// Biased address stream: mostly a small working set plus
				// occasional far misses.
				var addr uint64
				if rng.Intn(4) == 0 {
					addr = uint64(rng.Intn(1 << 20))
				} else {
					addr = uint64(rng.Intn(4 * cfg.SizeBytes))
				}
				addr &^= 7
				write := rng.Intn(3) == 0
				got := c.Access(addr, write)
				want := ref.access(addr)
				if got != want {
					t.Logf("seed %d cfg %s access %d addr %#x: got hit=%v want %v", seed, cfg.Name, i, addr, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}

	// Fetch-like streams: runs of sequential 4-byte accesses that stay on
	// one line for several accesses (the same-line fast path), jumps to
	// other lines, Read/Write/Access mixed, and an occasional Flush. The
	// hit result and every Stats field must match after each access.
	fetch := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, cfg := range configs {
			c := New(cfg)
			ref := newReference(cfg)
			pc := uint64(0)
			for i := 0; i < 4000; i++ {
				switch r := rng.Intn(100); {
				case r == 0:
					c.Flush()
					ref.flush()
				case r < 12:
					pc = uint64(rng.Intn(4*cfg.SizeBytes)) &^ 3
				default:
					pc += 4
				}
				write := rng.Intn(5) == 0
				var got bool
				switch {
				case rng.Intn(2) == 0:
					got = c.Access(pc, write)
				case write:
					got = c.Write(pc)
				default:
					got = c.Read(pc)
				}
				want := ref.accessCounted(pc, write)
				if got != want || c.Stats() != ref.stats {
					t.Logf("seed %d cfg %s access %d addr %#x write %v: got hit=%v stats %+v, want hit=%v stats %+v",
						seed, cfg.Name, i, pc, write, got, c.Stats(), want, ref.stats)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fetch, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsArithmetic(t *testing.T) {
	s := Stats{ReadHits: 3, ReadMisses: 1, WriteHits: 2, WriteMisses: 4}
	if s.Reads() != 4 || s.Writes() != 6 || s.Misses() != 5 || s.Accesses() != 10 {
		t.Fatalf("bad arithmetic: %+v", s)
	}
	if r := s.MissRatio(); r != 0.5 {
		t.Fatalf("miss ratio = %v, want 0.5", r)
	}
	if (Stats{}).MissRatio() != 0 {
		t.Fatal("idle miss ratio should be 0")
	}
}

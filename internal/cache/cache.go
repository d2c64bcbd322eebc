// Package cache simulates set-associative caches with LRU replacement. The
// default configurations mirror the UltraSPARC-I caches the paper measured:
// a 16 KB direct-mapped L1 data cache with 32-byte lines and a 16 KB 2-way
// L1 instruction cache.
package cache

import "fmt"

// Config describes a cache geometry.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	Assoc     int // 1 = direct mapped
}

// UltraSPARC-like default geometries (Section 6.4.1 of the paper describes
// the L1 data cache as "an on-chip 16 Kb, direct mapped cache").
var (
	DefaultL1D = Config{Name: "L1D", SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}
	DefaultL1I = Config{Name: "L1I", SizeBytes: 16 << 10, LineBytes: 32, Assoc: 2}
	// DefaultL2 approximates the UltraSPARC's external unified E-cache; the
	// simulator leaves it disabled unless explicitly configured.
	DefaultL2 = Config{Name: "L2", SizeBytes: 512 << 10, LineBytes: 64, Assoc: 1}
)

// Stats accumulates access counts.
type Stats struct {
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMisses uint64
}

// Reads returns total read accesses.
func (s Stats) Reads() uint64 { return s.ReadHits + s.ReadMisses }

// Writes returns total write accesses.
func (s Stats) Writes() uint64 { return s.WriteHits + s.WriteMisses }

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Reads() + s.Writes() }

// MissRatio returns misses/accesses (0 when idle).
func (s Stats) MissRatio() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(a)
}

// Cache is a set-associative cache with true-LRU replacement and
// write-allocate semantics. It tracks only tags (contents are irrelevant to
// miss behaviour).
//
// State is kept in flat arrays indexed by set*assoc+way rather than
// per-set slices: the lookup is on the simulator's per-instruction path
// (every fetch and every data access goes through Read or Write), and the
// flat layout removes a pointer chase and two bounds checks per probe.
type Cache struct {
	cfg      Config
	sets     int
	assoc    int
	lineBits uint
	setMask  uint64
	tagShift uint
	// tags/lru are indexed by set*assoc+way; an invalid way holds the tag
	// none, and lru holds a recency stamp (higher = newer).
	tags  []uint64
	lru   []uint64
	clock uint64
	stats Stats

	// last is the line number (addr >> lineBits) of the most recent
	// access, or none. That line is resident and the most recently used
	// in its set, so a repeat access to it is a hit that changes no
	// replacement decision: the fast paths in Read and Write count it and
	// skip the set walk, the clock tick and the LRU stamp. Stamps are only
	// compared within a set and the clock stays monotonic, so the stale
	// stamp still orders the line after every other way in its set.
	last uint64
}

// none marks an invalid way in tags and "no access yet" in last. No line
// number or tag reaches it because New requires lines of at least two
// bytes.
const none = ^uint64(0)

// New builds a cache from cfg. It panics on a non-power-of-two geometry or
// a line narrower than two bytes, which are configuration errors.
func New(cfg Config) *Cache {
	if cfg.Assoc <= 0 || cfg.LineBytes < 2 || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cache %s: invalid config %+v", cfg.Name, cfg))
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Assoc
	if sets <= 0 || sets&(sets-1) != 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cache %s: geometry must be power of two (sets=%d lines=%d)", cfg.Name, sets, lines))
	}
	lineBits := uint(0)
	for 1<<lineBits != cfg.LineBytes {
		lineBits++
	}
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		assoc:    cfg.Assoc,
		lineBits: lineBits,
		setMask:  uint64(sets - 1),
		tagShift: uint(setBits(sets)),
	}
	c.tags = make([]uint64, sets*cfg.Assoc)
	c.lru = make([]uint64, sets*cfg.Assoc)
	c.Flush()
	return c
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated access statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics without disturbing cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Flush invalidates all lines and clears statistics.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = none
	}
	c.stats = Stats{}
	c.clock = 0
	c.last = none
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.lineBits
	return int(line & c.setMask), line >> c.tagShift
}

func setBits(sets int) int {
	b := 0
	for 1<<b != sets {
		b++
	}
	return b
}

// Access simulates one access; write=true for stores. It returns true on a
// hit. Misses allocate the line (write-allocate for stores).
func (c *Cache) Access(addr uint64, write bool) bool {
	if write {
		return c.Write(addr)
	}
	return c.Read(addr)
}

// Read simulates a load or an instruction fetch: Access(addr, false).
func (c *Cache) Read(addr uint64) bool {
	if addr>>c.lineBits == c.last {
		c.stats.ReadHits++
		return true
	}
	return c.lookup(addr, false)
}

// Write simulates a store: Access(addr, true).
func (c *Cache) Write(addr uint64) bool {
	if addr>>c.lineBits == c.last {
		c.stats.WriteHits++
		return true
	}
	return c.lookup(addr, true)
}

// lookup is the set walk behind Read and Write for an access to any line
// but the last one: it hits or allocates, and remembers the line.
func (c *Cache) lookup(addr uint64, write bool) bool {
	line := addr >> c.lineBits
	set := int(line & c.setMask)
	tag := line >> c.tagShift
	c.last = line
	c.clock++
	if c.assoc == 1 {
		// Direct-mapped fast path (the default L1D): one compare, no LRU
		// bookkeeping — the single way is always the victim.
		if c.tags[set] == tag {
			if write {
				c.stats.WriteHits++
			} else {
				c.stats.ReadHits++
			}
			return true
		}
		if write {
			c.stats.WriteMisses++
		} else {
			c.stats.ReadMisses++
		}
		c.tags[set] = tag
		return false
	}
	base := set * c.assoc
	for w := base; w < base+c.assoc; w++ {
		if c.tags[w] == tag {
			c.lru[w] = c.clock
			if write {
				c.stats.WriteHits++
			} else {
				c.stats.ReadHits++
			}
			return true
		}
	}
	if write {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	// Victim: first invalid way, else least recently used.
	victim := base
	var oldest uint64 = ^uint64(0)
	for w := base; w < base+c.assoc; w++ {
		if c.tags[w] == none {
			victim = w
			break
		}
		if c.lru[w] < oldest {
			oldest = c.lru[w]
			victim = w
		}
	}
	c.tags[victim] = tag
	c.lru[victim] = c.clock
	return false
}

// Contains reports whether addr's line is currently cached (no statistics
// side effects); used by tests.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.assoc
	for w := base; w < base+c.assoc; w++ {
		if c.tags[w] == tag {
			return true
		}
	}
	return false
}

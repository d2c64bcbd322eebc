package wire

import (
	"fmt"

	"pathprof/internal/profile"
)

// Legacy profile envelope layout (kind 1, versions 1 and 2; decoded
// only — profiles are written as frame items, see batch.go).
//
// Version 2, section secProfileSchema (one, first):
//
//	string program, string mode, uvarint numEvents, string event...,
//	[uvarint k]                    trailing, only when k > 1
//
// Version 1, section secProfileHeader (one, first):
//
//	string program, string mode, string event0, string event1
//
// Section secProfileProc (one per procedure, in profile order):
//
//	varint procID, string name, varint numPaths,
//	uvarint numEntries, then per entry (in stored order):
//	varint sum, uvarint freq, uvarint metric × numEvents,
//	[varint k]                     trailing, only in k>1 profiles
//
// (numEvents is fixed at 2 for version-1 envelopes.)
//
// The k fields carry a k-iteration profile's degrees without a version
// bump: classic envelopes omit them, and the decoder detects them by
// leftover payload bytes.

// maxWireEvents bounds the schema width a decoded envelope may declare —
// generous against hpm.MaxCounters, tight against hostile headers.
const maxWireEvents = 256

// maxWireK bounds the iteration degree a decoded profile may declare —
// far above instrument's own ceiling, tight against hostile payloads.
const maxWireK = 255

func decodeProfileSections(e *envelope) (*profile.Profile, error) {
	var p *profile.Profile
	for {
		id, _, payload, err := e.next()
		if err != nil {
			return nil, err
		}
		if id == secEnd {
			break
		}
		c := &cursor{b: payload}
		switch id {
		case secProfileHeader:
			// Version-1 header: a fixed two-event schema.
			if e.version != 1 {
				return nil, e.errorf("v1 profile header in version %d envelope", e.version)
			}
			if p != nil {
				return nil, e.errorf("duplicate profile header section")
			}
			p = &profile.Profile{Events: make([]string, 2)}
			if p.Program, err = c.string(); err == nil {
				if p.Mode, err = c.string(); err == nil {
					if p.Events[0], err = c.string(); err == nil {
						p.Events[1], err = c.string()
					}
				}
			}
			if err == nil {
				err = c.done()
			}
			if err != nil {
				return nil, e.errorf("profile header: %v", err)
			}
		case secProfileSchema:
			if e.version < 2 {
				return nil, e.errorf("schema section in version %d envelope", e.version)
			}
			if p != nil {
				return nil, e.errorf("duplicate profile header section")
			}
			p = &profile.Profile{}
			if p.Program, err = c.string(); err == nil {
				p.Mode, err = c.string()
			}
			if err == nil {
				var n int
				if n, err = c.count(1); err == nil {
					if n > maxWireEvents {
						return nil, e.errorf("profile schema: %d events exceeds limit", n)
					}
					p.Events = make([]string, n)
					for i := range p.Events {
						if p.Events[i], err = c.string(); err != nil {
							break
						}
					}
				}
			}
			if err == nil && c.remaining() > 0 {
				// Trailing iteration degree (k>1 schemas only).
				var k uint64
				if k, err = c.uvarint(); err == nil {
					if k < 2 || k > maxWireK {
						return nil, e.errorf("profile schema: bad iteration degree %d", k)
					}
					p.K = int(k)
				}
			}
			if err == nil {
				err = c.done()
			}
			if err != nil {
				return nil, e.errorf("profile schema: %v", err)
			}
		case secProfileProc:
			if p == nil {
				return nil, e.errorf("proc section before profile header")
			}
			pp, err := decodeProcSection(c, len(p.Events))
			if err != nil {
				return nil, e.errorf("proc section: %v", err)
			}
			if p.Procs == nil {
				// Sections stream, so the proc count is unknown up front;
				// start at a capacity that covers typical workloads in one
				// allocation instead of growing through the doublings.
				p.Procs = make([]*profile.ProcPaths, 0, 64)
			}
			p.Procs = append(p.Procs, pp)
		default:
			return nil, e.errorf("unexpected section %d in profile payload", id)
		}
	}
	if p == nil {
		return nil, e.errorf("profile payload has no header section")
	}
	return p, nil
}

func decodeProcSection(c *cursor, numMetrics int) (*profile.ProcPaths, error) {
	pp := &profile.ProcPaths{}
	id, err := c.varint()
	if err != nil {
		return nil, err
	}
	pp.ProcID = int(id)
	if pp.Name, err = c.string(); err != nil {
		return nil, err
	}
	if pp.NumPaths, err = c.varint(); err != nil {
		return nil, err
	}
	n, err := c.count(2 + numMetrics) // sum + freq + metrics, one byte each minimum
	if err != nil {
		return nil, err
	}
	pp.Entries = make([]profile.PathEntry, n)
	for i := range pp.Entries {
		en := &pp.Entries[i]
		if en.Sum, err = c.varint(); err != nil {
			return nil, err
		}
		if en.Freq, err = c.uvarint(); err != nil {
			return nil, err
		}
		if numMetrics > 0 {
			en.Metrics = pp.NewMetrics(numMetrics)
			for k := 0; k < numMetrics; k++ {
				if en.Metrics[k], err = c.uvarint(); err != nil {
					return nil, err
				}
			}
		}
	}
	if c.remaining() > 0 {
		// Trailing per-proc effective degree (k>1 profiles only).
		k, err := c.varint()
		if err != nil {
			return nil, err
		}
		if k < 1 || k > maxWireK {
			return nil, fmt.Errorf("bad proc iteration degree %d", k)
		}
		pp.K = int(k)
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	return pp, nil
}

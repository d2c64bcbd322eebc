package wire

import (
	"io"

	"pathprof/internal/cct"
	"pathprof/internal/flat"
)

// Legacy CCT envelope layout (kind 2, versions 1 and 2; decoded only —
// exports are written as frame items, see batch.go).
//
// Section secCCTHeader (one, first):
//
//	string program, uvarint numProcs, bool distinguishSites,
//	uvarint numMetrics, byte flags (bit 0: structural extras present),
//	then when structural: uvarint sizeBytes, uvarint listElems
//
// Section secCCTNode (one per record, depth-first preorder):
//
//	uvarint id, uvarint parentID, varint proc,
//	uvarint numMetrics + varint each,
//	uvarint numPathCounts + (varint sum, varint count)* sorted by sum,
//	then when structural: uvarint size, uvarint numSlots +
//	per slot: byte (bit 0 used, bits 1-2 path state),
//	          varint prefix when path state == 1
//
// Section secCCTBackedges (one, last, present when any backedges exist):
//
//	uvarint count, (uvarint fromID, uvarint toID)*

const flagStructure = 1

func decodeExportSections(e *envelope) (*cct.Export, error) {
	var ex *cct.Export
	sawBackedges := false
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
		case secCCTHeader:
			if ex != nil {
				return nil, e.errorf("duplicate cct header section")
			}
			if ex, err = decodeCCTHeader(c); err != nil {
				return nil, e.errorf("cct header: %v", err)
			}
		case secCCTNode:
			if ex == nil {
				return nil, e.errorf("node section before cct header")
			}
			if sawBackedges {
				return nil, e.errorf("node section after backedges")
			}
			if err := decodeCCTNode(c, ex); err != nil {
				return nil, e.errorf("cct node: %v", err)
			}
		case secCCTBackedges:
			if ex == nil {
				return nil, e.errorf("backedge section before cct header")
			}
			if sawBackedges {
				return nil, e.errorf("duplicate backedge section")
			}
			sawBackedges = true
			if err := decodeCCTBackedges(c, ex); err != nil {
				return nil, e.errorf("cct backedges: %v", err)
			}
		default:
			return nil, e.errorf("unexpected section %d in cct payload", id)
		}
	}
	if ex == nil {
		return nil, e.errorf("cct payload has no header section")
	}
	return ex, nil
}

func decodeCCTHeader(c *cursor) (*cct.Export, error) {
	ex := &cct.Export{}
	var err error
	if ex.Program, err = c.string(); err != nil {
		return nil, err
	}
	np, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	ex.NumProcs = int(np)
	if ex.DistinguishSites, err = c.bool(); err != nil {
		return nil, err
	}
	nm, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	ex.NumMetrics = int(nm)
	flags, err := c.ReadByte()
	if err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	if flags&flagStructure != 0 {
		ex.HasStructure = true
		if ex.SizeBytes, err = c.uvarint(); err != nil {
			return nil, err
		}
		le, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		ex.ListElems = int(le)
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	root := &cct.ExportedNode{ID: 0, Proc: -1, PathCounts: flat.New(0)}
	ex.Root = root
	ex.Nodes = map[int]*cct.ExportedNode{0: root}
	return ex, nil
}

func decodeCCTNode(c *cursor, ex *cct.Export) error {
	id64, err := c.uvarint()
	if err != nil {
		return err
	}
	pid64, err := c.uvarint()
	if err != nil {
		return err
	}
	id, pid := int(id64), int(pid64)
	if id == 0 {
		return errNodeIDZero
	}
	if _, dup := ex.Nodes[id]; dup {
		return &nodeError{id: id, msg: "duplicate node id"}
	}
	parent, ok := ex.Nodes[pid]
	if !ok {
		return &nodeError{id: id, msg: "unknown parent"}
	}
	proc, err := c.varint()
	if err != nil {
		return err
	}
	n := &cct.ExportedNode{ID: id, ParentID: pid, Proc: int(proc)}
	nm, err := c.count(1)
	if err != nil {
		return err
	}
	if nm > 0 {
		n.Metrics = make([]int64, nm)
		for i := range n.Metrics {
			if n.Metrics[i], err = c.varint(); err != nil {
				return err
			}
		}
	}
	np, err := c.count(2)
	if err != nil {
		return err
	}
	n.PathCounts = flat.New(np)
	for i := 0; i < np; i++ {
		s, err := c.varint()
		if err != nil {
			return err
		}
		cnt, err := c.varint()
		if err != nil {
			return err
		}
		n.PathCounts.Set(s, cnt)
	}
	if ex.HasStructure {
		if n.Size, err = c.uvarint(); err != nil {
			return err
		}
		ns, err := c.count(1)
		if err != nil {
			return err
		}
		n.Slots = make([]cct.SlotStat, ns)
		for i := range n.Slots {
			st, err := c.ReadByte()
			if err != nil {
				return io.ErrUnexpectedEOF
			}
			n.Slots[i].Used = st&1 != 0
			n.Slots[i].PathState = st >> 1
			if n.Slots[i].PathState > 2 {
				return &nodeError{id: id, msg: "bad slot state"}
			}
			if n.Slots[i].PathState == 1 {
				if n.Slots[i].PathPrefix, err = c.varint(); err != nil {
					return err
				}
			}
		}
	}
	if err := c.done(); err != nil {
		return err
	}
	parent.Children = append(parent.Children, n)
	ex.Nodes[id] = n
	return nil
}

func decodeCCTBackedges(c *cursor, ex *cct.Export) error {
	n, err := c.count(2)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		from64, err := c.uvarint()
		if err != nil {
			return err
		}
		to64, err := c.uvarint()
		if err != nil {
			return err
		}
		from, ok := ex.Nodes[int(from64)]
		if !ok {
			return &nodeError{id: int(from64), msg: "backedge from unknown node"}
		}
		if _, ok := ex.Nodes[int(to64)]; !ok {
			return &nodeError{id: int(to64), msg: "backedge to unknown node"}
		}
		from.Backedges = append(from.Backedges, int(to64))
	}
	return c.done()
}

type nodeError struct {
	id  int
	msg string
}

func (e *nodeError) Error() string { return e.msg + " (node " + itoa(e.id) + ")" }

var errNodeIDZero = &nodeError{id: 0, msg: "node id 0 is reserved for the root"}

// itoa avoids importing strconv for one error path.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

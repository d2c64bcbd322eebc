// Package wire implements the compact binary encoding profiles travel in
// between producers and the collection tier (internal/collector), for
// both of the paper's profile kinds: flow-sensitive path profiles
// (profile.Profile) and calling context tree exports (cct.Export).
//
// Every message shares one framing:
//
//	"PPW1"                         magic
//	version  byte                  format version
//	kind     byte                  payload kind
//	sections { id byte, uvarint length, payload }*
//	end      byte 0                end-of-sections marker
//	crc      uint32 little-endian  CRC-32C of every preceding byte
//
// The only format this package writes is the version-3 batched frame
// (batch.go): a string table plus one section per profile or export, so
// a single push is simply a frame of one item (Encode, EncodeProfile,
// EncodeExport). Versions 1 and 2 — one envelope per message, kind
// 1 = profile or 2 = CCT export, one section per procedure or call
// record — are decoded only, so blobs and store records written by old
// producers keep working; see testdata/v1_*.bin and testdata/v2_*.bin.
// Version 2 carries an N-event metric schema (secProfileSchema); version
// 1 has a fixed two-event header (secProfileHeader) that the reader maps
// onto a two-event schema.
//
// One in-memory walker (envelope) parses the framing of every version:
// it checks the header and the checksum trailer, then hands out section
// payloads as subslices of the caller's buffer, bounding each declared
// length by maxSectionLen and by the bytes actually present. Frame.Reset
// and the legacy section decoders both use it. Decoded values round-trip
// byte-identically against the text encoders: re-encoding them with
// profile.(*Profile).Write or cct.(*Export).WriteText reproduces the
// original text file. Unlike the text format, the CCT payload also
// carries the structural detail Table 3 needs (record sizes, per-site
// slot states, heap footprint), so merged aggregates report exact
// statistics.
//
// Corrupt, truncated or oversized input yields a positioned error
// ("wire: offset N: ..."), never a panic; the trailing checksum rejects
// bit flips that still parse.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"pathprof/internal/cct"
	"pathprof/internal/profile"
)

var magic = [4]byte{'P', 'P', 'W', '1'}

// Kind discriminates the payload carried by an envelope.
type Kind byte

const (
	KindProfile Kind = 1
	KindCCT     Kind = 2
)

func (k Kind) String() string {
	switch k {
	case KindProfile:
		return "profile"
	case KindCCT:
		return "cct"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// Section IDs.
const (
	secEnd           = 0
	secProfileHeader = 1 // v1 profile header: exactly two event names
	secProfileProc   = 2
	secCCTHeader     = 3
	secCCTNode       = 4
	secCCTBackedges  = 5
	secProfileSchema = 6 // v2 profile header: N-event metric schema
)

// maxSectionLen bounds a single section's declared payload length; it is
// far above anything the encoders produce and exists so hostile length
// fields cannot demand absurd allocations.
const maxSectionLen = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Payload is a decoded envelope: exactly one of Profile / Export is set,
// per Kind.
type Payload struct {
	Kind    Kind
	Profile *profile.Profile
	Export  *cct.Export
}

// Program returns the name of the program the payload profiles.
func (p *Payload) Program() string {
	switch p.Kind {
	case KindProfile:
		return p.Profile.Program
	case KindCCT:
		return p.Export.Program
	}
	return ""
}

// Encode writes v — a *profile.Profile or *cct.Export — as a one-item
// frame.
func Encode(w io.Writer, v any) error {
	switch v := v.(type) {
	case *profile.Profile:
		return EncodeProfile(w, v)
	case *cct.Export:
		return EncodeExport(w, v)
	default:
		return fmt.Errorf("wire: cannot encode %T", v)
	}
}

// EncodeProfile writes p as a one-item frame.
func EncodeProfile(w io.Writer, p *profile.Profile) error {
	var bw BatchWriter
	if err := bw.AddProfile(p); err != nil {
		return err
	}
	_, err := w.Write(bw.Frame())
	return err
}

// EncodeExport writes ex as a one-item frame.
func EncodeExport(w io.Writer, ex *cct.Export) error {
	var bw BatchWriter
	if err := bw.AddExport(ex); err != nil {
		return err
	}
	_, err := w.Write(bw.Frame())
	return err
}

// Decode reads r to its end and decodes the one envelope it holds: a
// frame carrying exactly one item, or a legacy version-1/2 envelope.
func Decode(r io.Reader) (*Payload, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("wire: reading envelope: %w", err)
	}
	if IsFrame(data) {
		return decodeFrameOfOne(data)
	}
	e, err := openEnvelope(data)
	if err != nil {
		return nil, err
	}
	pl := &Payload{Kind: e.kind}
	if e.kind == KindProfile {
		pl.Profile, err = decodeProfileSections(&e)
	} else {
		pl.Export, err = decodeExportSections(&e)
	}
	if err != nil {
		return nil, err
	}
	return pl, nil
}

// DecodeProfile reads one envelope that must carry a profile.
func DecodeProfile(r io.Reader) (*profile.Profile, error) {
	pl, err := Decode(r)
	if err != nil {
		return nil, err
	}
	if pl.Kind != KindProfile {
		return nil, errKind(KindProfile, pl.Kind)
	}
	return pl.Profile, nil
}

// DecodeExport reads one envelope that must carry a CCT export.
func DecodeExport(r io.Reader) (*cct.Export, error) {
	pl, err := Decode(r)
	if err != nil {
		return nil, err
	}
	if pl.Kind != KindCCT {
		return nil, errKind(KindCCT, pl.Kind)
	}
	return pl.Export, nil
}

// decodeFrameOfOne materializes the single item of a one-item frame.
func decodeFrameOfOne(data []byte) (*Payload, error) {
	var f Frame
	if err := f.Reset(data); err != nil {
		return nil, err
	}
	if n := f.Items(); n != 1 {
		return nil, errorAt(6, "frame holds %d items, want exactly 1", n)
	}
	pl := &Payload{Kind: f.Kind(0)}
	var err error
	if pl.Kind == KindProfile {
		pl.Profile, err = f.ProfileAt(0)
	} else {
		pl.Export, err = f.ExportAt(0)
	}
	if err != nil {
		return nil, err
	}
	return pl, nil
}

func errKind(want, got Kind) error {
	return &KindError{Want: want, Got: got}
}

// KindError reports an envelope carrying the wrong payload kind.
type KindError struct{ Want, Got Kind }

func (e *KindError) Error() string {
	return "wire: payload is a " + e.Got.String() + ", want " + e.Want.String()
}

func errorAt(off int, format string, args ...any) error {
	return fmt.Errorf("wire: offset %d: %s", off, fmt.Sprintf(format, args...))
}

// --- envelope walker ---

// envelope walks one complete message held in memory. openEnvelope
// checks the header and the CRC-32C trailer; next then yields the
// sections in order, each payload a subslice of the message.
type envelope struct {
	data    []byte
	version byte
	kind    Kind
	pos     int // offset of the next section header
	end     int // offset of the checksum trailer
}

// openEnvelope validates data's header (magic, a known version, a kind
// that version carries) and its checksum trailer.
func openEnvelope(data []byte) (envelope, error) {
	if len(data) < 6+1+4 {
		return envelope{}, errorAt(len(data), "truncated input (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != magic {
		return envelope{}, errorAt(0, "bad magic %q", data[:4])
	}
	version, kind := data[4], Kind(data[5])
	switch {
	case version == FrameVersion:
		if kind != KindBatch {
			return envelope{}, errorAt(5, "frame kind %d is not a batch", data[5])
		}
	case version == 1 || version == 2:
		if kind != KindProfile && kind != KindCCT {
			return envelope{}, errorAt(5, "unknown payload kind %d", data[5])
		}
	default:
		return envelope{}, errorAt(4, "unsupported version %d (accept 1..%d)", version, FrameVersion)
	}
	end := len(data) - 4
	want := binary.LittleEndian.Uint32(data[end:])
	if got := crc32.Checksum(data[:end], crcTable); got != want {
		return envelope{}, errorAt(end, "checksum mismatch: trailer %08x, computed %08x", want, got)
	}
	return envelope{data: data, version: version, kind: kind, pos: 6, end: end}, nil
}

// next returns the next section's id and payload. At the end marker it
// returns secEnd and a nil payload, after checking that the trailer
// follows the marker directly.
func (e *envelope) next() (id byte, off int, payload []byte, err error) {
	if e.pos >= e.end {
		return 0, 0, nil, errorAt(e.pos, "input has no end marker")
	}
	id = e.data[e.pos]
	e.pos++
	if id == secEnd {
		if e.pos != e.end {
			return 0, 0, nil, errorAt(e.pos, "%d trailing bytes after end marker", e.end-e.pos)
		}
		return secEnd, e.pos, nil, nil
	}
	n, sz := binary.Uvarint(e.data[e.pos:e.end])
	if sz <= 0 {
		return 0, 0, nil, errorAt(e.pos, "bad section length")
	}
	e.pos += sz
	if n > maxSectionLen || n > uint64(e.end-e.pos) {
		return 0, 0, nil, errorAt(e.pos, "section %d length %d exceeds input", id, n)
	}
	off = e.pos
	e.pos += int(n)
	return id, off, e.data[off:e.pos], nil
}

// errorf reports a section-level error at the end of the section just
// read.
func (e *envelope) errorf(format string, args ...any) error {
	return errorAt(e.pos, format, args...)
}

// Buffer append helpers.

func putUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func putVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func putString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// --- section payload cursor ---

// cursor parses primitives out of one section's payload.
type cursor struct {
	b   []byte
	pos int
}

func (c *cursor) remaining() int { return len(c.b) - c.pos }

func (c *cursor) ReadByte() (byte, error) {
	if c.pos >= len(c.b) {
		return 0, io.ErrUnexpectedEOF
	}
	b := c.b[c.pos]
	c.pos++
	return b, nil
}

func (c *cursor) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(c)
	if err != nil {
		return 0, fmt.Errorf("truncated varint")
	}
	return v, nil
}

func (c *cursor) varint() (int64, error) {
	v, err := binary.ReadVarint(c)
	if err != nil {
		return 0, fmt.Errorf("truncated varint")
	}
	return v, nil
}

func (c *cursor) bool() (bool, error) {
	b, err := c.ReadByte()
	if err != nil {
		return false, fmt.Errorf("truncated bool")
	}
	if b > 1 {
		return false, fmt.Errorf("bad bool byte %d", b)
	}
	return b == 1, nil
}

func (c *cursor) string() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(c.remaining()) {
		return "", fmt.Errorf("string length %d exceeds section", n)
	}
	s := string(c.b[c.pos : c.pos+int(n)])
	c.pos += int(n)
	return s, nil
}

// count reads a collection length and validates it against the bytes left
// in the section (each element needs at least minBytes), so corrupt counts
// cannot demand absurd allocations.
func (c *cursor) count(minBytes int) (int, error) {
	n, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(c.remaining()/minBytes) {
		return 0, fmt.Errorf("count %d exceeds section size", n)
	}
	return int(n), nil
}

func (c *cursor) done() error {
	if c.pos != len(c.b) {
		return fmt.Errorf("%d trailing bytes in section", len(c.b)-c.pos)
	}
	return nil
}

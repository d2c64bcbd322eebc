package wire_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"pathprof/internal/cct"
	"pathprof/internal/profile"
	"pathprof/internal/wire"
)

// seedEnvelopes builds small valid one-item frames of both kinds without
// the simulator, so the corpus is cheap and deterministic.
func seedEnvelopes() [][]byte {
	p := &profile.Profile{
		Program: "seed", Mode: "flow+hw", Events: []string{"dcache-miss", "insts"},
		Procs: []*profile.ProcPaths{
			{ProcID: 0, Name: "main", NumPaths: 4, Entries: []profile.PathEntry{
				profile.NewEntry(0, 3, 7, 41),
				profile.NewEntry(2, 1, 0, 9),
			}},
			{ProcID: 1, Name: "leaf", NumPaths: 2},
		},
	}
	// A wide schema: five events on one entry exercises more metric
	// columns than the classic pair.
	wide := &profile.Profile{
		Program: "seed5", Mode: "flow+hw",
		Events: []string{"cycles", "insts", "dcache-miss", "icache-miss", "branches"},
		Procs: []*profile.ProcPaths{
			{ProcID: 0, Name: "main", NumPaths: 2, Entries: []profile.PathEntry{
				profile.NewEntry(0, 4, 9, 8, 7, 6, 5),
			}},
		},
	}
	// A k-iteration profile: degree 2 overall, the second proc clamped
	// classic — exercises the trailing schema/proc degree fields.
	kp := &profile.Profile{
		Program: "seedk", Mode: "flow", K: 2, Events: []string{"insts"},
		Procs: []*profile.ProcPaths{
			{ProcID: 0, Name: "main", NumPaths: 6, K: 2, Entries: []profile.PathEntry{
				profile.NewEntry(0, 3, 11),
				profile.NewEntry(5, 1, 2),
			}},
			{ProcID: 1, Name: "leaf", NumPaths: 2, K: 1},
		},
	}
	tr := cct.New([]cct.ProcInfo{
		{Name: "main", NumSites: 2, NumPaths: 4},
		{Name: "leaf", NumSites: 1, NumPaths: 2},
	}, cct.Options{DistinguishCallSites: true, NumMetrics: 1, PathCounts: true}, 0)
	tr.AtCall(0, cct.NoPrefix, nil)
	tr.Enter(0, nil)
	tr.AddMetric(0, 1, nil)
	tr.CountPath(1, nil)
	tr.AtCall(1, cct.NoPrefix, nil)
	tr.Enter(1, nil)
	tr.AddMetric(0, 2, nil)
	tr.AtCall(0, cct.NoPrefix, nil)
	tr.Enter(0, nil) // recursive: becomes a backedge
	tr.Exit(nil)
	tr.Exit(nil)
	tr.Exit(nil)

	var pb, wb, kb, xb bytes.Buffer
	if err := wire.EncodeProfile(&pb, p); err != nil {
		panic(err)
	}
	if err := wire.EncodeProfile(&wb, wide); err != nil {
		panic(err)
	}
	if err := wire.EncodeProfile(&kb, kp); err != nil {
		panic(err)
	}
	if err := wire.EncodeExport(&xb, tr.Export("seed")); err != nil {
		panic(err)
	}

	// A v3 batched frame carrying all three payloads twice, so the corpus
	// exercises the shared string table and both item kinds.
	bw := wire.NewBatchWriter()
	for i := 0; i < 2; i++ {
		if err := bw.AddProfile(p); err != nil {
			panic(err)
		}
		if err := bw.AddProfile(wide); err != nil {
			panic(err)
		}
		if err := bw.AddProfile(kp); err != nil {
			panic(err)
		}
		if err := bw.AddExport(tr.Export("seed")); err != nil {
			panic(err)
		}
	}
	frame := bw.Frame()

	// Deliberately damaged frame variants: truncated mid-batch, a flipped
	// byte (CRC mismatch), and a duplicated section run with a valid CRC
	// (so the duplicate-string-table validator is reached, not the
	// checksum).
	truncated := frame[:len(frame)*2/3]
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)/2] ^= 0x20
	dupStrings := append([]byte(nil), frame[:6]...)
	dupStrings = append(dupStrings, frame[6:len(frame)-5]...) // sections, sans end + CRC
	dupStrings = append(dupStrings, frame[6:len(frame)-4]...) // sections again + end
	sum := crc32.Checksum(dupStrings, crc32.MakeTable(crc32.Castagnoli))
	dupStrings = binary.LittleEndian.AppendUint32(dupStrings, sum)

	return [][]byte{pb.Bytes(), wb.Bytes(), kb.Bytes(), xb.Bytes(), frame, truncated, flipped, dupStrings}
}

// FuzzDecode: arbitrary input must produce either a decoded payload or a
// descriptive error — never a panic, and never unbounded allocation. A
// successful decode must also re-encode, and batched frames must both
// parse structurally and materialize every item (or error cleanly).
func FuzzDecode(f *testing.F) {
	for _, seed := range seedEnvelopes() {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	for _, name := range legacyBlobs {
		blob := readBlob(f, name)
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	f.Add([]byte("PPW1"))
	f.Add([]byte("PPW1\x01\x02\x00"))
	f.Add([]byte("PPW1\x03\x03\x00"))
	f.Add([]byte("not an envelope at all"))
	// Store segment files (internal/store) hold wire payloads behind a
	// 16-byte "PPWALSEG" header and 17-byte record frames. A decoder
	// handed a whole segment, or an envelope at a record-frame offset,
	// must reject cleanly — these seeds keep the two on-disk formats from
	// ever being confused.
	for _, env := range seedEnvelopes()[:1] {
		seg := append([]byte("PPWALSEG\x01\x00\x00\x00\x00\x00\x00\x00"), 1) // header, kind
		seg = append(seg, 0x2a, 0, 0, 0, 0, 0, 0, 0)                         // push id
		seg = binary.LittleEndian.AppendUint32(seg, uint32(len(env)))        // length
		crc := crc32.Checksum(seg[16:], crc32.MakeTable(crc32.Castagnoli))   // kind+id+len
		crc = crc32.Update(crc, crc32.MakeTable(crc32.Castagnoli), env)
		seg = binary.LittleEndian.AppendUint32(seg, crc)
		seg = append(seg, env...)
		f.Add(seg)
		f.Add(seg[16:]) // record frame without the file header
	}
	f.Add([]byte("PPWALSNP\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x03"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if wire.IsFrame(data) {
			fr, err := wire.ParseFrame(data)
			if err != nil {
				return
			}
			bw := wire.NewBatchWriter()
			for i := 0; i < fr.Items(); i++ {
				switch fr.Kind(i) {
				case wire.KindProfile:
					p, err := fr.ProfileAt(i)
					if err != nil {
						continue
					}
					if err := bw.AddProfile(p); err != nil {
						t.Fatalf("decoded profile item failed to re-encode: %v", err)
					}
				case wire.KindCCT:
					ex, err := fr.ExportAt(i)
					if err != nil {
						continue
					}
					if err := bw.AddExport(ex); err != nil {
						t.Fatalf("decoded cct item failed to re-encode: %v", err)
					}
				default:
					t.Fatalf("frame reported unknown item kind %v", fr.Kind(i))
				}
			}
			if bw.Items() > 0 {
				if _, err := wire.ParseFrame(bw.Frame()); err != nil {
					t.Fatalf("re-encoded frame failed to parse: %v", err)
				}
			}
			return
		}
		pl, err := wire.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		switch pl.Kind {
		case wire.KindProfile:
			err = wire.EncodeProfile(&buf, pl.Profile)
		case wire.KindCCT:
			err = wire.EncodeExport(&buf, pl.Export)
		default:
			t.Fatalf("decode accepted unknown kind %v", pl.Kind)
		}
		if err != nil {
			t.Fatalf("decoded payload failed to re-encode: %v", err)
		}
	})
}

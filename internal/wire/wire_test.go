package wire_test

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"pathprof/internal/cct"
	"pathprof/internal/experiments"
	"pathprof/internal/instrument"
	"pathprof/internal/profile"
	"pathprof/internal/wire"
	"pathprof/internal/workload"
)

// testWorkloads keeps the round-trip tests fast: two programs with very
// different shapes (deep call tree vs. path-rich search).
var testWorkloads = []string{"objdb", "compress"}

func newSession(t *testing.T) *experiments.Session {
	t.Helper()
	s := experiments.NewSession(workload.Test)
	var ws []workload.Workload
	for _, name := range testWorkloads {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		ws = append(ws, w)
	}
	s.Workloads = ws
	return s
}

func realProfile(t *testing.T, s *experiments.Session, name string) *profile.Profile {
	t.Helper()
	w, _ := workload.ByName(name)
	cell, err := s.Run(w, instrument.ModePathHW, experiments.StandardEvents[0], experiments.StandardEvents[1])
	if err != nil {
		t.Fatal(err)
	}
	return cell.Profile
}

func realTree(t *testing.T, s *experiments.Session, name string) *cct.Tree {
	t.Helper()
	w, _ := workload.ByName(name)
	cell, err := s.Run(w, instrument.ModeContextFlow, experiments.StandardEvents[0], experiments.StandardEvents[1])
	if err != nil {
		t.Fatal(err)
	}
	return cell.Tree
}

// TestProfileRoundTrip: wire encode/decode preserves a real flow+HW profile
// byte-identically under the text encoder, and the wire form is smaller.
func TestProfileRoundTrip(t *testing.T) {
	s := newSession(t)
	for _, name := range testWorkloads {
		p := realProfile(t, s, name)
		var text bytes.Buffer
		if err := p.Write(&text); err != nil {
			t.Fatal(err)
		}
		var bin bytes.Buffer
		if err := wire.EncodeProfile(&bin, p); err != nil {
			t.Fatal(err)
		}
		got, err := wire.DecodeProfile(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		var text2 bytes.Buffer
		if err := got.Write(&text2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(text.Bytes(), text2.Bytes()) {
			t.Fatalf("%s: profile text differs after wire round trip", name)
		}
		if bin.Len() >= text.Len() {
			t.Errorf("%s: wire form %d bytes, text form %d — wire should be compact",
				name, bin.Len(), text.Len())
		}
	}
}

// TestExportRoundTrip: wire encode/decode preserves a real CCT export both
// byte-identically under the text encoder and exactly under Stats().
func TestExportRoundTrip(t *testing.T) {
	s := newSession(t)
	for _, name := range testWorkloads {
		tr := realTree(t, s, name)
		ex := tr.Export(name)
		if !ex.HasStructure {
			t.Fatalf("%s: Tree.Export did not mark structure", name)
		}
		var text bytes.Buffer
		if err := ex.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		var bin bytes.Buffer
		if err := wire.EncodeExport(&bin, ex); err != nil {
			t.Fatal(err)
		}
		got, err := wire.DecodeExport(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		var text2 bytes.Buffer
		if err := got.WriteText(&text2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(text.Bytes(), text2.Bytes()) {
			t.Fatalf("%s: cct text differs after wire round trip", name)
		}
		if want, gotStats := tr.ComputeStats(), got.Stats(); gotStats != want {
			t.Fatalf("%s: stats after round trip\n got %+v\nwant %+v", name, gotStats, want)
		}
		if bin.Len() >= text.Len() {
			t.Errorf("%s: wire form %d bytes, text form %d — wire should be compact",
				name, bin.Len(), text.Len())
		}
	}
}

// TestExportMatchesTextCodec: decoding the wire form equals decoding the
// text form for everything the text form carries.
func TestExportMatchesTextCodec(t *testing.T) {
	s := newSession(t)
	tr := realTree(t, s, testWorkloads[0])
	ex := tr.Export(testWorkloads[0])

	var text bytes.Buffer
	if err := ex.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	fromText, err := cct.Read(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := wire.EncodeExport(&bin, ex); err != nil {
		t.Fatal(err)
	}
	fromWire, err := wire.DecodeExport(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := fromText.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := fromWire.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("wire decode and text decode disagree")
	}
}

// TestDecodeGenericEnvelope: Decode dispatches on the kind byte.
func TestDecodeGenericEnvelope(t *testing.T) {
	s := newSession(t)
	p := realProfile(t, s, testWorkloads[0])
	tr := realTree(t, s, testWorkloads[0])

	var bin bytes.Buffer
	if err := wire.Encode(&bin, p); err != nil {
		t.Fatal(err)
	}
	pl, err := wire.Decode(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if pl.Kind != wire.KindProfile || pl.Profile == nil || pl.Export != nil {
		t.Fatalf("bad profile payload: %+v", pl)
	}
	if pl.Program() != p.Program {
		t.Fatalf("program %q, want %q", pl.Program(), p.Program)
	}

	bin.Reset()
	if err := wire.Encode(&bin, tr.Export("x")); err != nil {
		t.Fatal(err)
	}
	pl, err = wire.Decode(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if pl.Kind != wire.KindCCT || pl.Export == nil || pl.Profile != nil {
		t.Fatalf("bad cct payload: %+v", pl)
	}
	if pl.Program() != "x" {
		t.Fatalf("program %q, want x", pl.Program())
	}
}

// TestKindMismatch: the typed decoders reject the other payload kind,
// from a legacy envelope and from a one-item frame alike.
func TestKindMismatch(t *testing.T) {
	s := newSession(t)
	var frame bytes.Buffer
	if err := wire.EncodeProfile(&frame, realProfile(t, s, testWorkloads[0])); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"legacy": readBlob(t, "v2_profile"),
		"frame":  frame.Bytes(),
	} {
		if _, err := wire.DecodeExport(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: DecodeExport accepted a profile envelope", name)
		} else if !strings.Contains(err.Error(), "profile") {
			t.Fatalf("%s: unhelpful kind error: %v", name, err)
		}
	}
}

// TestDecodeTruncated: every proper prefix of a valid envelope — each
// legacy blob and a one-item frame of a real profile — errors and never
// panics.
func TestDecodeTruncated(t *testing.T) {
	s := newSession(t)
	var frame bytes.Buffer
	if err := wire.EncodeProfile(&frame, realProfile(t, s, testWorkloads[1])); err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]byte{"frame": frame.Bytes()}
	for _, name := range legacyBlobs {
		inputs[name] = readBlob(t, name)
	}
	for name, data := range inputs {
		for n := 0; n < len(data); n++ {
			if _, err := wire.Decode(bytes.NewReader(data[:n])); err == nil {
				t.Fatalf("%s: accepted %d-byte prefix of a %d-byte envelope", name, n, len(data))
			}
		}
	}
}

// TestDecodeCorrupt: flipping any single bit is caught (structurally or by
// the CRC-32C trailer), in a legacy CCT envelope and in a one-item frame.
func TestDecodeCorrupt(t *testing.T) {
	s := newSession(t)
	tr := realTree(t, s, testWorkloads[0])
	var frame bytes.Buffer
	if err := wire.EncodeExport(&frame, tr.Export("x")); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"legacy": readBlob(t, "v2_cct"),
		"frame":  frame.Bytes(),
	} {
		step := 1
		if len(data) > 4096 {
			step = len(data) / 4096
		}
		for i := 0; i < len(data); i += step {
			mut := bytes.Clone(data)
			mut[i] ^= 0x40
			if _, err := wire.Decode(bytes.NewReader(mut)); err == nil {
				t.Fatalf("%s: accepted envelope with byte %d corrupted", name, i)
			}
		}
	}
}

// legacyBlobs name the committed version-1/2 envelopes in testdata, each
// written by the encoder of its version. <name>.txt beside each blob
// holds its decoded rendering (see renderPayload).
var legacyBlobs = []string{"v1_profile", "v1_cct", "v2_profile", "v2_profile_k2", "v2_profile_wide", "v2_cct"}

func readBlob(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name + ".bin")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// renderPayload is the decode oracle: the text encoding of the payload,
// plus the Table 3 statistics of a CCT export.
func renderPayload(t *testing.T, pl *wire.Payload) string {
	t.Helper()
	var buf bytes.Buffer
	if pl.Kind == wire.KindProfile {
		if err := pl.Profile.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if err := pl.Export.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "stats %+v\n", pl.Export.Stats())
	return buf.String()
}

// TestLegacyBlobsDecode: every committed legacy envelope decodes to its
// recorded rendering, and re-encoding it writes a one-item frame that
// decodes to the same rendering.
func TestLegacyBlobsDecode(t *testing.T) {
	for _, name := range legacyBlobs {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + name + ".txt")
			if err != nil {
				t.Fatal(err)
			}
			data := readBlob(t, name)
			if wire.IsFrame(data) {
				t.Fatal("legacy blob reads as a frame")
			}
			pl, err := wire.Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("legacy blob no longer decodes: %v", err)
			}
			if got := renderPayload(t, pl); got != string(want) {
				t.Fatalf("decoded rendering\n%s\nwant\n%s", got, want)
			}
			var re bytes.Buffer
			if pl.Kind == wire.KindProfile {
				err = wire.Encode(&re, pl.Profile)
			} else {
				err = wire.Encode(&re, pl.Export)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !wire.IsFrame(re.Bytes()) {
				t.Fatal("re-encode did not write a frame")
			}
			pl2, err := wire.Decode(bytes.NewReader(re.Bytes()))
			if err != nil {
				t.Fatalf("re-encoded blob: %v", err)
			}
			if got := renderPayload(t, pl2); got != string(want) {
				t.Fatalf("re-encoded rendering\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// TestDecodeV1GoldenProfile: a committed version-1 envelope (fixed
// two-event header, no schema section) must keep decoding, mapping onto a
// two-event schema.
func TestDecodeV1GoldenProfile(t *testing.T) {
	data, err := os.ReadFile("testdata/v1_profile.bin")
	if err != nil {
		t.Fatal(err)
	}
	p, err := wire.DecodeProfile(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("v1 profile blob no longer decodes: %v", err)
	}
	if p.Program != "golden" || p.Mode != "flow+hw" {
		t.Fatalf("header: %q %q", p.Program, p.Mode)
	}
	if want := []string{"dcache-miss", "insts"}; !slices.Equal(p.Events, want) {
		t.Fatalf("events = %v, want %v", p.Events, want)
	}
	if len(p.Procs) != 2 || p.Procs[0].Name != "main" || p.Procs[1].Name != "leaf" {
		t.Fatalf("procs: %+v", p.Procs)
	}
	main := p.Procs[0]
	if len(main.Entries) != 2 {
		t.Fatalf("main entries: %+v", main.Entries)
	}
	if e := main.Entries[0]; e.Sum != 0 || e.Freq != 3 || e.Metric(0) != 17 || e.Metric(1) != 420 {
		t.Fatalf("main entry 0: %+v", e)
	}
	if e := main.Entries[1]; e.Sum != 2 || e.Freq != 1 || e.Metric(0) != 0 || e.Metric(1) != 99 {
		t.Fatalf("main entry 1: %+v", e)
	}
	if e := p.Procs[1].Entries[0]; e.Sum != 0 || e.Freq != 7 || e.Metric(0) != 5 || e.Metric(1) != 70 {
		t.Fatalf("leaf entry: %+v", e)
	}
}

// TestDecodeV1GoldenCCT: the committed version-1 CCT export still decodes.
func TestDecodeV1GoldenCCT(t *testing.T) {
	data, err := os.ReadFile("testdata/v1_cct.bin")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := wire.DecodeExport(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("v1 cct blob no longer decodes: %v", err)
	}
	if ex.Program != "golden" {
		t.Fatalf("program = %q", ex.Program)
	}
	if ex.NumMetrics != 3 {
		t.Fatalf("metrics = %d", ex.NumMetrics)
	}
	st := ex.Stats()
	if st.Nodes == 0 {
		t.Fatalf("empty tree: %+v", st)
	}
}

// TestV2RejectsV1Header: a v2 envelope may not smuggle the legacy fixed
// two-event header section. The trailer is recomputed after the version
// edit, so the header-section rule fires, not the checksum.
func TestV2RejectsV1Header(t *testing.T) {
	mut := readBlob(t, "v1_profile")
	mut[4] = 2
	_, err := wire.Decode(bytes.NewReader(reframe(mut)))
	if err == nil {
		t.Fatal("v2 envelope with v1 header section accepted")
	}
	if !strings.Contains(err.Error(), "v1 profile header") {
		t.Fatalf("error %q does not name the v1 header", err)
	}
}

// TestBadHeader: wrong magic and unsupported versions are rejected up front.
func TestBadHeader(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("PPW"),
		[]byte("XXXX\x01\x01"),
		[]byte("PPW1\x07\x01"), // future version
		[]byte("PPW1\x01\x09"), // unknown kind
	}
	for _, c := range cases {
		if _, err := wire.Decode(bytes.NewReader(c)); err == nil {
			t.Errorf("accepted header %q", c)
		}
	}
}

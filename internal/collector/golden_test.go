package collector

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"pathprof/internal/store"
	"pathprof/internal/wire"
)

// TestV1GoldenBlobsIngest: the committed version-1 and version-2
// envelopes are the compatibility path, and they reach the fold only
// through the conversion to a one-item frame. Pushed over HTTP or
// replayed through ApplyPayload, each blob must aggregate to exactly
// what wire.Decode reads from it.
func TestV1GoldenBlobsIngest(t *testing.T) {
	for _, name := range []string{
		"v1_profile.bin", "v1_cct.bin",
		"v2_profile.bin", "v2_profile_k2.bin", "v2_profile_wide.bin", "v2_cct.bin",
	} {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "wire", "testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			pl, err := wire.Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if pl.Kind == wire.KindProfile {
				err = wire.Encode(&want, pl.Profile)
			} else {
				err = wire.Encode(&want, pl.Export)
			}
			if err != nil {
				t.Fatal(err)
			}

			posted, cl := newServer(t, Config{Shards: 2})
			ir, err := cl.pushBytes(context.Background(), data)
			if err != nil {
				t.Fatal(err)
			}
			if ir.Kind != pl.Kind.String() || ir.Program != pl.Program() || ir.Envelopes != 1 {
				t.Fatalf("ack %+v, want kind %s program %s", ir, pl.Kind, pl.Program())
			}
			replayed := New(Config{Shards: 2})
			if err := replayed.ApplyPayload(data); err != nil {
				t.Fatal(err)
			}
			for route, c := range map[string]*Collector{"POST": posted, "ApplyPayload": replayed} {
				if got := aggregateBytes(t, c, pl.Program()); !bytes.Equal(got, want.Bytes()) {
					t.Errorf("%s: merged aggregate differs from the decoded blob", route)
				}
			}
		})
	}
}

// TestLegacyWALReplays: testdata/wal_legacy is a store directory written
// by a durable collector from single version-2 pushes plus one frame;
// testdata/wal_legacy.tables holds the Tables 3, 4 and 5 it rendered.
// Mounted today, the store must replay to those same tables.
func TestLegacyWALReplays(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "wal_legacy.tables"))
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join("testdata", "wal_legacy")
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	// Mounting writes to the directory (a fresh active segment), so the
	// committed copy is never opened in place.
	dir := t.TempDir()
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, cl, _, rec := newDurableServer(t, dir, Config{Shards: 2}, store.Options{})
	if rec.Records != 5 || rec.ApplyErrors != 0 {
		t.Fatalf("recovery %+v, want 5 records applied", rec)
	}
	tables := tableBytes(t, cl, []string{"compress", "otherprog"})
	if got := tables[0] + tables[1] + tables[2]; got != string(want) {
		t.Fatalf("replayed tables differ from the recorded ones\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestIngestAckRule: a push carrying exactly one envelope acks with its
// kind and program, whatever its wire form; any larger push acks as a
// batch. Every ack carries the counts.
func TestIngestAckRule(t *testing.T) {
	prof, tree := fixtures(t)
	ex := tree.Export("compress")
	legacy, err := os.ReadFile(filepath.Join("..", "wire", "testdata", "v2_profile.bin"))
	if err != nil {
		t.Fatal(err)
	}
	frameOf := func(n int) []byte {
		bw := wire.NewBatchWriter()
		for i := 0; i < n; i++ {
			if err := bw.AddExport(ex); err != nil {
				t.Fatal(err)
			}
		}
		return bw.Frame()
	}
	_, cl := newServer(t, Config{Shards: 2})
	ctx := context.Background()
	cases := []struct {
		name string
		push func() (*IngestResponse, error)
		want IngestResponse
	}{
		{"legacy envelope", func() (*IngestResponse, error) { return cl.pushBytes(ctx, legacy) },
			IngestResponse{Kind: "profile", Program: "legacy", Envelopes: 1, Profiles: 1}},
		{"PushProfile", func() (*IngestResponse, error) { return cl.PushProfile(ctx, prof) },
			IngestResponse{Kind: "profile", Program: prof.Program, Envelopes: 1, Profiles: 1}},
		{"PushExport", func() (*IngestResponse, error) { return cl.PushExport(ctx, ex) },
			IngestResponse{Kind: "cct", Program: "compress", Envelopes: 1, CCTs: 1}},
		{"frame of one", func() (*IngestResponse, error) { return cl.PushFrame(ctx, frameOf(1)) },
			IngestResponse{Kind: "cct", Program: "compress", Envelopes: 1, CCTs: 1}},
		{"frame of two", func() (*IngestResponse, error) { return cl.PushFrame(ctx, frameOf(2)) },
			IngestResponse{Kind: "batch", Envelopes: 2, CCTs: 2}},
	}
	for _, tc := range cases {
		ir, err := tc.push()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if *ir != tc.want {
			t.Errorf("%s: ack %+v, want %+v", tc.name, *ir, tc.want)
		}
	}
}

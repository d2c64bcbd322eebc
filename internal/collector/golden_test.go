package collector

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"pathprof/internal/wire"
)

// TestV1GoldenBlobsIngest: the committed version-1 envelopes are the
// compatibility path, and they reach the fold only through the batch
// conversion. Pushed over HTTP or replayed through ApplyPayload, each
// blob must aggregate to exactly what wire.Decode reads from it.
func TestV1GoldenBlobsIngest(t *testing.T) {
	for _, name := range []string{"v1_profile.bin", "v1_cct.bin"} {
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
			if ir.Kind != pl.Kind.String() || ir.Program != pl.Program() {
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

package experiments

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"pathprof/internal/workload"
)

// TestGoldenTablesTestScale: every table at Test scale renders
// byte-identically to the committed output, with Table 3 collected from
// one run and from four merged shards. Regenerate the file with
//
//	go run ./cmd/experiments -all -scale test 2>/dev/null > internal/experiments/testdata/tables_test_scale.txt
//
// only when a change to the tables is intended.
func TestGoldenTablesTestScale(t *testing.T) {
	want, err := os.ReadFile("testdata/tables_test_scale.txt")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(workload.Test)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var got bytes.Buffer
			if err := s.WriteTables(&got, AllTables, shards, nil); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("tables differ from testdata/tables_test_scale.txt:\n%s", firstDiff(want, got.Bytes()))
			}
		})
	}
}

// firstDiff describes the first line where got departs from want.
func firstDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\n want %q\n  got %q", i+1, w, g)
		}
	}
	return "no line differs"
}

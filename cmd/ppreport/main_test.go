package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathprof/internal/profile"
)

func writeProfile(t *testing.T, p *profile.Profile) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), p.Mode+".prof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func sampleProfile(mode string) *profile.Profile {
	return &profile.Profile{
		Program: "prog", Mode: mode, Events: []string{"dcache-miss", "insts"},
		Procs: []*profile.ProcPaths{{ProcID: 0, Name: "main", NumPaths: 2, Entries: []profile.PathEntry{
			profile.NewEntry(1, 5, 2, 40),
		}}},
	}
}

// TestMergeFileRejectsModeMismatch: -merge of a context+hw profile into a
// flow+hw one fails naming the file, instead of summing the frequencies.
func TestMergeFileRejectsModeMismatch(t *testing.T) {
	other := writeProfile(t, sampleProfile("context+hw"))
	prof := sampleProfile("flow+hw")
	err := mergeFile(prof, other)
	if err == nil || !strings.Contains(err.Error(), "mode mismatch") || !strings.Contains(err.Error(), other) {
		t.Fatalf("mergeFile = %v, want a mode mismatch naming %s", err, other)
	}
	if f := prof.Procs[0].Entries[0].Freq; f != 5 {
		t.Fatalf("rejected merge changed the frequency to %d", f)
	}

	same := writeProfile(t, sampleProfile("flow+hw"))
	if err := mergeFile(prof, same); err != nil {
		t.Fatal(err)
	}
	if f := prof.Procs[0].Entries[0].Freq; f != 10 {
		t.Fatalf("same-mode merge frequency = %d, want 10", f)
	}
}

package collector

import (
	"context"
	"fmt"
	"testing"

	"pathprof/internal/wire"
)

// TestKDegreeConflictRejected: a k=2 profile cannot fold into a classic
// aggregate of the same program — the path id spaces are unrelated — and
// the conflict surfaces as a 409 on both the envelope and the frame path.
func TestKDegreeConflictRejected(t *testing.T) {
	for _, shards := range conflictShards {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testKDegreeConflict(t, shards)
		})
	}
}

func testKDegreeConflict(t *testing.T, shards int) {
	prof, _ := fixtures(t)
	c, cl := newServer(t, Config{Shards: shards})
	ctx := context.Background()
	if _, err := cl.PushProfile(ctx, prof); err != nil {
		t.Fatal(err)
	}
	k2 := cloneProfile(prof)
	k2.K = 2
	for _, pp := range k2.Procs {
		pp.K = 2
	}
	requireConflict(t, c, prof.Program, func() error { // envelope path
		_, err := cl.PushProfile(ctx, k2)
		return err
	})

	bw := wire.NewBatchWriter()
	if err := bw.AddProfile(k2); err != nil {
		t.Fatal(err)
	}
	requireConflict(t, c, prof.Program, func() error { // frame path
		_, err := cl.PushFrame(ctx, bw.Frame())
		return err
	})
	if c.Metrics().RejectedConflict != 2 {
		t.Fatalf("metrics: %+v", c.Metrics())
	}

	// The reverse direction conflicts too: seed a k-aggregate under a new
	// program name, then push classic and a different degree into it.
	k3 := cloneProfile(k2)
	k3.Program = "kprog"
	if _, err := cl.PushProfile(ctx, k3); err != nil {
		t.Fatal(err)
	}
	classic := cloneProfile(prof)
	classic.Program = "kprog"
	requireConflict(t, c, "kprog", func() error { // classic into k-aggregate
		_, err := cl.PushProfile(ctx, classic)
		return err
	})
	k9 := cloneProfile(k2)
	k9.Program = "kprog"
	k9.K = 3
	requireConflict(t, c, "kprog", func() error { // k=3 into k=2 aggregate
		_, err := cl.PushProfile(ctx, k9)
		return err
	})

	// Same-degree pushes keep folding, and the snapshot keeps the degree.
	if _, err := cl.PushProfile(ctx, cloneProfile(k3)); err != nil {
		t.Fatal(err)
	}
	bw.Reset()
	if err := bw.AddProfile(k3); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PushFrame(ctx, bw.Frame()); err != nil {
		t.Fatal(err)
	}
	merged, ok := c.MergedProfile("kprog")
	if !ok || merged.K != 2 {
		t.Fatalf("merged k-profile lost its degree: ok=%v K=%d", ok, merged.K)
	}
	for _, pp := range merged.Procs {
		if pp.K != 2 {
			t.Fatalf("proc %s lost its effective degree: %d", pp.Name, pp.K)
		}
	}
}

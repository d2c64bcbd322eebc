package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// reference is the committed table of deterministic outputs every run is
// checked against: simulated counts and encoded-frame digests per profile
// case, and the round-trip outcome per optimize case. Regenerate it with
// -write-reference only when the simulator's or optimizer's results are
// meant to change.
type reference struct {
	Profile  map[string]profileRef  `json:"profile"`
	Optimize map[string]optimizeRef `json:"optimize"`
}

type profileRef struct {
	Instrs      uint64 `json:"instrs"`
	Cycles      uint64 `json:"cycles"`
	L1DMisses   uint64 `json:"l1d_misses"`
	L1IMisses   uint64 `json:"l1i_misses"`
	Mispredicts uint64 `json:"mispredicts"`
	// Frame is the SHA-256 of the wire-v3 frame the op encoded; empty for
	// uninstrumented runs, which produce no profile.
	Frame string `json:"frame_sha256"`
}

type optimizeRef struct {
	Winner       string `json:"winner"`
	BeforeCycles uint64 `json:"before_cycles"`
	AfterCycles  uint64 `json:"after_cycles"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

// writeReference runs one pass of the profile and optimize workloads
// without a reference and writes what they observed.
func writeReference(path string) error {
	ref := reference{}
	tr := newTracer()
	pb := newProfileBench(1, tr, nil)
	ob := newOptimizeBench(1, tr, nil)
	for _, b := range []bench{pb, ob} {
		if err := b.setup(); err != nil {
			return err
		}
		r := &runner{b: b, tr: tr, log: os.Stderr}
		if seg := r.measure(0, 0, 1); seg.failed > 0 {
			return fmt.Errorf("%d ops failed while recording the reference", seg.failed)
		}
		b.teardown()
	}
	ref.Profile = pb.observed
	ref.Optimize = ob.observed
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

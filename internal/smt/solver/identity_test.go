package solver_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"testing"
	"time"

	"gauntlet/internal/compiler"
	"gauntlet/internal/generator"
	"gauntlet/internal/smt"
	"gauntlet/internal/smt/solver"
	"gauntlet/internal/target/bmv2"
	"gauntlet/internal/testgen"
	"gauntlet/internal/validate"
)

// identityConflicts is the engine's default per-query conflict budget,
// so Unknown verdicts under the budget are pinned too.
const identityConflicts = 20000

// TestSearchIdentity pins the CDCL search itself, not just its verdicts.
// Each case digests, for every SAT verdict in order, the status, the
// instance's cumulative conflict, decision and propagation counts, and
// the full model when Sat:
//
//   - validate/N: translation validation of generator slot N through the
//     v1model reference pipeline, as the validate-only benchmark
//     workload runs it (concolic seed 1, fresh cache), with the tier of
//     every query; slots 3, 47, 219 and 236 reach the CDCL tier;
//   - testgen/0-7: packet-test generation for slots 0–7, with every
//     generated case (packet, table configuration, expected output).
//
// Every Unsat among these queries is certified by the RUP checker.
//
// The digests were recorded before the solver's hot paths were rewritten
// (order heap, in-place watch lists), so they hold the rewrite to making
// exactly the same decisions. They change only on purpose: when a change
// to the search heuristic (decision order, learning, restarts, clause
// deletion) is meant to change the search, re-record them from the
// failure message and say so with the change.
func TestSearchIdentity(t *testing.T) {
	want := map[string]string{
		"validate/3":   "a1e6058d55a7a9ae3b3289f79bbcb69f0c116f69162f7a7504866fe2062ca054",
		"validate/47":  "28adc8b8579c1b99ac4f8973fadc2f6ec25541090bc616ee3cb8f61b02ca9a84",
		"validate/219": "3c1522f64b31a3e85308d4e7924cc2d8b7e3a122d2971239c5944b4b02e47bfd",
		"validate/236": "2b0884aab66219b015e22a5fa104e6097c101e30f8b9a5997ceb78c310addb9b",
		"testgen/0-7":  "58526783c978f7febded440e5bd23e0aed82b03111913d5b635a8d0534405da0",
	}
	pc := solver.CheckProofs(t)
	var h hash.Hash
	pc.OnVerdict = func(s *solver.SAT, st solver.Status) {
		fmt.Fprintf(h, "%v %d %d %d\n", st, s.Conflicts, s.Decisions, s.Propagations)
		if st == solver.Sat {
			m := make([]byte, s.NumVars())
			for v := range m {
				if s.ValueOf(v + 1) {
					m[v] = 1
				}
			}
			h.Write(m)
		}
	}
	comp := compiler.New(append(compiler.DefaultPasses(), bmv2.BackendPasses()...)...)
	compile := func(slot int64) *compiler.Result {
		res, err := comp.Compile(generator.Generate(generator.DefaultConfig(slot)))
		if err != nil {
			t.Fatalf("slot %d: compile: %v", slot, err)
		}
		return res
	}
	got := map[string]string{}
	ctx := context.Background()
	for _, slot := range []int64{3, 47, 219, 236} {
		h = sha256.New()
		cdcl := 0
		opts := validate.Options{
			MaxConflicts: identityConflicts,
			Cache:        validate.NewCacheIn(smt.NewContext()),
			Concolic:     validate.Concolic{Seed: 1},
			QueryObs: func(tier string, _ time.Duration) {
				fmt.Fprintf(h, "tier %s\n", tier)
				if tier == validate.TierCDCL {
					cdcl++
				}
			},
		}
		if _, err := validate.SnapshotsContext(ctx, compile(slot), opts); err != nil {
			t.Fatalf("slot %d: validate: %v", slot, err)
		}
		if cdcl == 0 {
			t.Errorf("slot %d: no query reached the CDCL tier", slot)
		}
		got[fmt.Sprintf("validate/%d", slot)] = fmt.Sprintf("%x", h.Sum(nil))
	}
	h = sha256.New()
	for slot := int64(0); slot < 8; slot++ {
		opts := testgen.DefaultOptions()
		opts.MaxConflicts = identityConflicts
		opts.SMT = smt.NewContext()
		cases, err := testgen.GenerateContext(ctx, compile(slot).Snapshots[0].Prog, opts)
		if err != nil {
			t.Fatalf("slot %d: testgen: %v", slot, err)
		}
		b, err := json.Marshal(cases)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "slot %d cases %d\n", slot, len(cases))
		h.Write(b)
	}
	got["testgen/0-7"] = fmt.Sprintf("%x", h.Sum(nil))
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: search digest %s, want %s", k, got[k], w)
		}
	}
	if pc.Unsat == 0 {
		t.Errorf("no Unsat verdict was certified")
	}
	t.Logf("certified %d Unsat verdicts, %d Sat models, %d learnt clauses", pc.Unsat, pc.Sat, pc.Lemmas)
}

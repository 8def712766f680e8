package main

import (
	"context"
	"testing"
)

// TestWorkloadsRepeatAndTrace runs every workload on a small batch: two
// checked repetitions, a set-up probe and a traced run. It exercises the
// benchmark's hooks into the engine and the fleet (run it with -race).
func TestWorkloadsRepeatAndTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline")
	}
	t.Chdir(t.TempDir())
	ctx := context.Background()
	for _, wp := range workloads {
		w := workloadByName(wp.name, 0, 1)
		w.slots = 8
		t.Run(w.name, func(t *testing.T) {
			var first *rep
			for i := range 2 {
				r, err := w.runRep(ctx, nil)
				if err != nil {
					t.Fatal(err)
				}
				if bad := w.check(r, first); len(bad) > 0 {
					t.Fatalf("repetition %d: %v", i, bad)
				}
				if first == nil {
					first = r
				}
			}
			if d, err := w.setupTime(); err != nil || d <= 0 {
				t.Fatalf("setupTime = %v, %v", d, err)
			}
			res, err := w.traced(ctx, "spans.jsonl")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || len(res.Violations) > 0 {
				t.Fatalf("traced run failed its checks: %v", res.Violations)
			}
			if got := res.Metrics["compiler.calls"].Value; got != 8 {
				t.Errorf("compiler.calls = %v, want 8", got)
			}
		})
	}
}

package fleet

import (
	"context"
	"strings"
	"testing"

	"gauntlet/internal/core"
	"gauntlet/internal/persist"
)

func fingerprints(fs []core.Finding) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = f.Fingerprint
	}
	return out
}

// TestFleetResume: the coordinator owns the campaign's single journal and
// checkpoint, and a restarted coordinator — journal-seeded dedup plus the
// checkpoint watermark and corpus — must continue a partial campaign so
// the combined journal is byte-for-byte the single uninterrupted run, and
// at-least-once lease replay never re-reports a journaled fingerprint.
func TestFleetResume(t *testing.T) {
	run := testRun()
	run.Reduce = false
	const seeds, leaseSlots = 32, 8
	want, wantCorpus := directRun(t, run, seeds)
	if len(want) == 0 {
		t.Fatal("no findings: the seeded defects should fire within 32 seeds")
	}
	dir := t.TempDir()

	// Phase 1: a campaign over the first half of the budget, then a
	// simulated coordinator death (the process just stops).
	st1, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := NewCoordinator(CoordinatorConfig{
		Run: run, Seeds: 16, LeaseSlots: leaseSlots, State: st1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), coord1, localWorkers(2)); err != nil {
		t.Fatal(err)
	}
	st1.Close()

	// Phase 2: reopen the directory, resume to the full budget. Only
	// findings absent from the journal may be emitted.
	st2, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	known, nrec, err := st2.KnownFindings()
	if err != nil {
		t.Fatal(err)
	}
	if nrec == 0 || nrec != len(coord1.Findings()) {
		t.Fatalf("journal has %d records, phase 1 released %d findings", nrec, len(coord1.Findings()))
	}
	cp, err := st2.LoadCheckpoint()
	if err != nil || cp == nil {
		t.Fatalf("checkpoint: %v (cp=%v)", err, cp)
	}
	if cp.NextSlot != 16 {
		t.Fatalf("checkpoint NextSlot = %d, want 16", cp.NextSlot)
	}
	var emitted []core.Finding
	coord2, err := NewCoordinator(CoordinatorConfig{
		Run: run, Seeds: seeds, LeaseSlots: leaseSlots, State: st2,
		KnownFindings: known, Resume: cp,
		OnFinding: func(f core.Finding) { emitted = append(emitted, f) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), coord2, localWorkers(2)); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	knownSet := make(map[uint64]bool, len(known))
	for _, fp := range known {
		knownSet[fp] = true
	}
	for _, f := range emitted {
		if knownSet[f.Fingerprint] {
			t.Errorf("resume re-reported journaled fingerprint %016x", f.Fingerprint)
		}
	}

	// The combined journal must be the uninterrupted run's finding
	// sequence, and the resumed master corpus the uninterrupted corpus.
	st3, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := st3.KnownFindings()
	st3.Close()
	if err != nil {
		t.Fatal(err)
	}
	wantFPs := fingerprints(want)
	if len(all) != len(wantFPs) {
		t.Fatalf("journal has %d findings, uninterrupted run has %d:\njournal %x\nwant    %x", len(all), len(wantFPs), all, wantFPs)
	}
	for i := range all {
		if all[i] != wantFPs[i] {
			t.Fatalf("journal[%d] = %016x, uninterrupted run has %016x", i, all[i], wantFPs[i])
		}
	}
	wantCorpusFPs := wantCorpus.Fingerprints()
	gotCorpusFPs := coord2.Corpus().Fingerprints()
	if len(wantCorpusFPs) != len(gotCorpusFPs) {
		t.Fatalf("resumed corpus has %d seeds, uninterrupted run has %d", len(gotCorpusFPs), len(wantCorpusFPs))
	}
	for i := range wantCorpusFPs {
		if wantCorpusFPs[i] != gotCorpusFPs[i] {
			t.Fatalf("resumed corpus seed %d fingerprint diverges", i)
		}
	}

	// Phase 3: replay absorption. Resume again from the phase-1 watermark
	// with the now-complete journal — leases 2 and 3 re-run whole
	// (at-least-once), and every finding they produce is already
	// journaled, so nothing may be emitted or appended.
	st4, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord3, err := NewCoordinator(CoordinatorConfig{
		Run: run, Seeds: seeds, LeaseSlots: leaseSlots, State: st4,
		KnownFindings: all, Resume: cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), coord3, localWorkers(2)); err != nil {
		t.Fatal(err)
	}
	if got := coord3.Findings(); len(got) != 0 {
		t.Errorf("replayed leases re-reported %d journaled findings", len(got))
	}
	_, n4, err := st4.KnownFindings()
	st4.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n4 != len(all) {
		t.Errorf("replay grew the journal from %d to %d records", len(all), n4)
	}

	// Phase 4: a watermark at the end of the budget means nothing to do —
	// the coordinator is born complete.
	coord4, err := NewCoordinator(CoordinatorConfig{
		Run: run, Seeds: seeds, LeaseSlots: leaseSlots,
		KnownFindings: all, Resume: &persist.Checkpoint{NextSlot: seeds},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-coord4.Done():
	default:
		t.Error("coordinator resumed past the end is not Done")
	}
}

// TestFleetResumeCarriesTotals: checkpoint totals are lifetime counters.
// A coordinator killed mid-campaign and resumed from its checkpoint must
// finish with a checkpoint counting every slot of the campaign once and
// every journaled finding, not only what the resumed incarnation saw.
func TestFleetResumeCarriesTotals(t *testing.T) {
	run := testRun()
	run.Reduce = false
	const seeds, leaseSlots = 32, 8
	dir := t.TempDir()

	// Phase 1: kill the coordinator as its first lease releases. A single
	// worker completes its leases in order, so the kill lands
	// mid-campaign.
	st1, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, kill := context.WithCancel(context.Background())
	defer kill()
	coord1, err := NewCoordinator(CoordinatorConfig{
		Run: run, Seeds: seeds, LeaseSlots: leaseSlots, State: st1,
		Logf: func(format string, _ ...any) {
			if strings.HasPrefix(format, "fleet: watermark") {
				kill()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	RunLocal(ctx, coord1, localWorkers(1)) // the kill surfaces as a context error
	st1.Close()

	// Phase 2: resume from the checkpoint and finish the campaign.
	st2, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := st2.LoadCheckpoint()
	if err != nil || cp == nil {
		t.Fatalf("checkpoint: %v (cp=%v)", err, cp)
	}
	if cp.NextSlot >= seeds {
		t.Fatalf("the campaign finished before the kill (watermark %d)", cp.NextSlot)
	}
	known, _, err := st2.KnownFindings()
	if err != nil {
		t.Fatal(err)
	}
	coord2, err := NewCoordinator(CoordinatorConfig{
		Run: run, Seeds: seeds, LeaseSlots: leaseSlots, State: st2,
		KnownFindings: known, Resume: cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), coord2, localWorkers(1)); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	st3, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	final, err := st3.LoadCheckpoint()
	if err != nil || final == nil {
		t.Fatalf("final checkpoint: %v (cp=%v)", err, final)
	}
	_, nrec, err := st3.KnownFindings()
	if err != nil {
		t.Fatal(err)
	}
	if final.NextSlot != seeds || final.Totals.Programs != seeds {
		t.Errorf("final checkpoint: watermark %d, %d programs; want %d and %d (resumed at %d)",
			final.NextSlot, final.Totals.Programs, seeds, seeds, cp.NextSlot)
	}
	if final.Totals.Findings != uint64(nrec) {
		t.Errorf("final checkpoint counts %d findings, the journal holds %d", final.Totals.Findings, nrec)
	}
}

// TestFleetStatusLifetimeAfterResume: Status reports the whole campaign
// after a resume, as the checkpoints do. A 32-slot campaign resumed at
// slot 16 counts 32 programs and every journaled finding, not only the
// resumed incarnation's.
func TestFleetStatusLifetimeAfterResume(t *testing.T) {
	run := testRun()
	run.Reduce = false
	const seeds, leaseSlots = 32, 8
	dir := t.TempDir()

	// Phase 1: the first 16 slots as a campaign of their own. Its final
	// checkpoint is the one the 32-slot campaign writes at slot 16: the
	// leases up to there are the same.
	st1, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := NewCoordinator(CoordinatorConfig{Run: run, Seeds: seeds / 2, LeaseSlots: leaseSlots, State: st1})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), coord1, localWorkers(1)); err != nil {
		t.Fatal(err)
	}
	st1.Close()

	// Phase 2: resume the 32-slot campaign at slot 16.
	st2, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := st2.LoadCheckpoint()
	if err != nil || cp == nil || cp.NextSlot != seeds/2 {
		t.Fatalf("checkpoint: %v (cp=%+v), want watermark %d", err, cp, seeds/2)
	}
	known, _, err := st2.KnownFindings()
	if err != nil {
		t.Fatal(err)
	}
	coord2, err := NewCoordinator(CoordinatorConfig{
		Run: run, Seeds: seeds, LeaseSlots: leaseSlots, State: st2,
		KnownFindings: known, Resume: cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), coord2, localWorkers(1)); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	st3, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	_, nrec, err := st3.KnownFindings()
	if err != nil {
		t.Fatal(err)
	}
	got := coord2.Status()
	if got.Totals.Generated != seeds {
		t.Errorf("Status().Totals.Generated = %d, want %d", got.Totals.Generated, seeds)
	}
	if got.Findings != uint64(nrec) || nrec == 0 {
		t.Errorf("Status().Findings = %d, the journal holds %d (want equal and nonzero)", got.Findings, nrec)
	}
}

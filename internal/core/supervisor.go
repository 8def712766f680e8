package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/printer"
)

// QuarantineRecord describes one fault the stage supervisor contained: a
// panic, a stall, or an oracle that exhausted its escalation ladder. The
// faulting program is a findings-adjacent artifact — it is preserved
// (printed source, stage, symptom, seed) rather than allowed to kill the
// process, and the run continues without it.
type QuarantineRecord struct {
	// Stage names the pipeline stage that faulted: "generate",
	// "compile", "oracle" or "reduce".
	Stage string `json:"stage"`
	// Seed is the schedule slot of the faulting program.
	Seed int64 `json:"seed"`
	// Kind classifies the fault: "panic" (contained stage panic),
	// "stall" (the stage exceeded its wall-clock stall budget and its
	// goroutine was abandoned) or "timeout" (the oracle's escalation
	// ladder — retry at doubled budgets included — still hit the
	// deadline).
	Kind string `json:"kind"`
	// Symptom is the panic message, or a human-readable budget report.
	Symptom string `json:"symptom"`
	// Origin records the program's provenance ("generate"/"mutate").
	Origin string `json:"origin,omitempty"`
	// Source is the printed faulting program, when printable.
	Source string `json:"source,omitempty"`
	// Stack is the panicking goroutine's stack trace (panics only).
	Stack string `json:"stack,omitempty"`
}

// stageFault is the supervisor's internal fault report.
type stageFault struct {
	kind    string // "panic" | "stall"
	symptom string
	stack   string
}

// supervise runs one unit's stage body under the engine's fault
// supervisor. fn must be compute-only — it writes results into captured
// variables and performs no channel sends — so an abandoned invocation
// can keep running harmlessly (it touches only concurrency-safe shared
// state: atomics, the validation cache, the interner) while the worker
// moves on; its results are simply never read.
//
// Three outcomes:
//   - (err, nil, false): fn completed; err is fn's own error.
//   - (nil, fault, false): fn panicked, or exceeded stallAfter and its
//     goroutine was abandoned — the caller quarantines the unit and the
//     worker continues, which is the "restart" in supervisor terms: the
//     loop survives, only the unit is lost.
//   - (nil, nil, true): the run's context was cancelled while fn ran —
//     draining, not a fault; nothing to quarantine.
//
// With stallAfter <= 0 fn runs inline (no goroutine): panics are still
// contained, but a stall blocks the worker — the zero-cost configuration
// for trusted stages.
func supervise(ctx context.Context, stallAfter time.Duration, fn func() error) (error, *stageFault, bool) {
	if stallAfter <= 0 {
		err, fault := runContained(fn)
		return err, fault, false
	}
	done := make(chan struct{})
	var err error
	var fault *stageFault
	go func() {
		defer close(done)
		err, fault = runContained(fn)
	}()
	t := time.NewTimer(stallAfter)
	defer t.Stop()
	select {
	case <-done:
		return err, fault, false
	case <-t.C:
		return nil, &stageFault{
			kind:    "stall",
			symptom: fmt.Sprintf("stage exceeded %v stall budget; goroutine abandoned", stallAfter),
		}, false
	case <-ctx.Done():
		return nil, nil, true
	}
}

// runContained invokes fn with panic containment.
func runContained(fn func() error) (err error, fault *stageFault) {
	defer func() {
		if r := recover(); r != nil {
			err = nil
			fault = &stageFault{
				kind:    "panic",
				symptom: fmt.Sprint(r),
				stack:   string(debug.Stack()),
			}
		}
	}()
	return fn(), nil
}

// safePrint prints a program for a quarantine record, tolerating ASTs a
// fault left unprintable (a panic's poisoned tree must not panic the
// supervisor too).
func safePrint(prog *ast.Program) (src string) {
	if prog == nil {
		return ""
	}
	defer func() {
		if r := recover(); r != nil {
			src = fmt.Sprintf("// unprintable program: %v", r)
		}
	}()
	return printer.Print(prog)
}

// job is one unit's identity in a stage: everything a quarantine record
// needs, fixed before the stage body runs.
type job struct {
	stage  int
	lease  *leaseRun
	slot   int64
	origin string
	prog   *ast.Program
}

// quarantine accounts one contained fault and hands the record to the
// configured sink (called from the faulting stage's worker goroutine; the
// sink must be concurrency-safe).
func (e *Engine) quarantine(j job, f *stageFault) {
	bump(&e.quarantined, &j.lease.tally.Quarantined)
	if f.kind == "stall" {
		e.stalls.Add(1)
	}
	if e.cfg.OnQuarantine == nil {
		return
	}
	e.cfg.OnQuarantine(QuarantineRecord{
		Stage:   stageNames[j.stage],
		Seed:    j.slot,
		Kind:    f.kind,
		Symptom: f.symptom,
		Origin:  j.origin,
		Source:  safePrint(j.prog),
		Stack:   f.stack,
	})
}

// injectFault runs the configured fault hook for one (stage, slot). It is
// called from inside the supervised closure, so an injected panic or
// stall is contained exactly like an organic one; an injected error takes
// the stage's tool-limitation path.
func (e *Engine) injectFault(ctx context.Context, stage string, slot int64) error {
	if e.cfg.FaultHook == nil {
		return nil
	}
	return e.cfg.FaultHook(ctx, stage, slot)
}

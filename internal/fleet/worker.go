package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"gauntlet/internal/bugs"
	"gauntlet/internal/compiler"
	"gauntlet/internal/core"
	"gauntlet/internal/corpus"
	"gauntlet/internal/faultinject"
	"gauntlet/internal/generator"
)

// ErrSevered is returned by RunWorker when an injected link fault closed
// the connection (the chaos harness's expected outcome, not a bug).
var ErrSevered = errors.New("fleet: link severed by fault injection")

// errDrained ends a worker's engine run once the coordinator drains it.
var errDrained = errors.New("fleet: drained")

// WorkerConfig parameterizes one worker process (or goroutine).
type WorkerConfig struct {
	// Name identifies the worker in logs and the per-worker lease-latency
	// series ("" = "worker").
	Name string
	// LinkFault, when set, is consulted after each lease completes and
	// before its result is sent — the deterministic fleet-link
	// fault-injection point (faultinject.LinkPlan.Hook). Delay sleeps,
	// Drop swallows the result, Sever closes the connection.
	LinkFault func(lease int64) faultinject.LinkFault
	// Logf, when set, receives worker progress lines.
	Logf func(format string, args ...any)
}

// EngineConfig builds the engine configuration a campaign's settings
// describe, for fleet workers and single-process runs alike (callers set
// the slot range). MutateRatio stays zero — fleet runs are
// pure-generation, so a lease replays without cross-lease corpus state.
// The engine rotates a private solver context every
// core.DefaultEpochPrograms programs: a worker's memory stays bounded
// however many leases it runs.
func EngineConfig(run *RunConfig) (core.EngineConfig, error) {
	cfg := core.DefaultEngineConfig()
	cfg.Seed = run.Seed
	cfg.MutateRatio = 0
	cfg.SyncInterval = run.SyncInterval
	cfg.MaxCorpus = run.MaxCorpus
	cfg.Workers = run.EngineWorkers
	cfg.PacketTests = run.PacketTests
	cfg.BlackBox = run.BlackBox
	cfg.ConcolicOff = run.ConcolicOff
	if run.MaxConflicts > 0 {
		cfg.MaxConflicts = run.MaxConflicts
	}
	cfg.Reduce = run.Reduce
	if run.ReduceMaxRounds > 0 {
		cfg.ReduceOpts.MaxRounds = run.ReduceMaxRounds
	}
	if run.ReduceMaxPredicateCalls > 0 {
		cfg.ReduceOpts.MaxPredicateCalls = run.ReduceMaxPredicateCalls
	}
	cfg.MaxReducePerPass = run.MaxReducePerPass
	cfg.EpochPrograms = core.DefaultEpochPrograms
	cfg.StageTimeout = time.Duration(run.StageTimeoutMs) * time.Millisecond
	cfg.OracleTimeout = time.Duration(run.OracleTimeoutMs) * time.Millisecond
	switch run.Backend {
	case "", "v1model":
		cfg.Backend = generator.V1Model
	case "tna":
		cfg.Backend = generator.TNA
	default:
		return cfg, fmt.Errorf("unknown backend %q (want v1model or tna)", run.Backend)
	}
	if len(run.Defects) > 0 {
		reg := bugs.Load()
		var active []*bugs.Bug
		for _, id := range run.Defects {
			b := reg.ByID(id)
			if b == nil {
				return cfg, fmt.Errorf("defect registry has no bug %q", id)
			}
			active = append(active, b)
		}
		cfg.Passes = bugs.Instrument(compiler.DefaultPasses(), active)
	}
	return cfg, nil
}

// RunWorker speaks the worker side of the protocol over conn: hello,
// config, then one engine for the whole connection, fed by a stream of
// leases. The engine asks for the next lease when it needs more slots, so
// lease N+1 runs while lease N drains; each lease's result ships once the
// lease completes. Returns nil on a clean drain.
func RunWorker(ctx context.Context, conn io.ReadWriteCloser, wcfg WorkerConfig) error {
	defer conn.Close()
	if wcfg.Name == "" {
		wcfg.Name = "worker"
	}
	logf := wcfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ctx, stopRun := context.WithCancelCause(ctx)
	defer stopRun(nil)
	// Unblock the protocol reads when ctx dies: the engine run is
	// ctx-aware, but readMsg is not.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	in := bufio.NewReader(conn)
	if err := writeMsg(conn, &Envelope{Type: MsgHello, Hello: &Hello{Worker: wcfg.Name, Proto: ProtoVersion}}); err != nil {
		return err
	}
	env, err := readMsg(in)
	if err != nil {
		return fmt.Errorf("fleet: config: %w", err)
	}
	if env.Type != MsgConfig || env.Config == nil {
		return fmt.Errorf("fleet: expected config, got %q", env.Type)
	}
	run := env.Config
	cfg, err := EngineConfig(run)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}

	// Needs go out from the engine's scheduler, results from its report
	// stage: one lock keeps the frames whole.
	var writeMu sync.Mutex
	write := func(env *Envelope) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		return writeMsg(conn, env)
	}
	ship := func(res *Result) error {
		if wcfg.LinkFault != nil {
			f := wcfg.LinkFault(res.LeaseID)
			if f.Delay > 0 {
				select {
				case <-time.After(f.Delay):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			if f.Drop {
				logf("fleet: %s dropping result for lease %d (injected)", wcfg.Name, res.LeaseID)
				if f.Sever {
					return ErrSevered
				}
				return nil
			}
			if f.Sever {
				logf("fleet: %s severing link after lease %d (injected)", wcfg.Name, res.LeaseID)
				return ErrSevered
			}
		}
		return write(&Envelope{Type: MsgResult, Result: res})
	}
	// take reads the answer to a need: a lease, or drain.
	take := func() (core.Lease, bool) {
		env, err := readMsg(in)
		switch {
		case err != nil:
			stopRun(err)
		case env.Type == MsgDrain:
			// Drain means every lease is released (or the coordinator is
			// shutting down): whatever this worker still holds is moot.
			logf("fleet: %s drained", wcfg.Name)
			stopRun(errDrained)
		case env.Type != MsgLease || env.Lease == nil:
			stopRun(fmt.Errorf("fleet: unexpected %q from coordinator", env.Type))
		default:
			lease := *env.Lease
			crp := corpus.New(run.MaxCorpus)
			crp.EnableDeltaLog()
			return core.Lease{
				Start: lease.Start, Count: lease.Count, CampaignStart: lease.CampaignStart,
				Corpus: crp,
				Started: func() {
					logf("fleet: %s running lease %d [%d, %d)", wcfg.Name, lease.ID, lease.Start, lease.Start+lease.Count)
				},
				Done: func(fs []core.Finding, st core.LeaseStats) {
					res := &Result{LeaseID: lease.ID, Worker: wcfg.Name, Findings: fs, Delta: crp.ExportDelta(), Stats: st}
					if err := ship(res); err != nil {
						stopRun(err)
					}
				},
			}, true
		}
		return core.Lease{}, false
	}
	// A fresh worker needs slots at once: its first need goes out before
	// the engine is built, so the grant overlaps the construction. The
	// engine's scheduler asks for every later lease when it needs more.
	asked := write(&Envelope{Type: MsgNeed}) == nil
	core.NewEngine(cfg).RunLeases(ctx, func() (core.Lease, bool) {
		if !asked {
			if err := write(&Envelope{Type: MsgNeed}); err != nil {
				stopRun(err)
				return core.Lease{}, false
			}
		}
		asked = false
		return take()
	})
	if err := context.Cause(ctx); err != nil && err != errDrained {
		return err
	}
	return nil
}

package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gauntlet/internal/core"
	"gauntlet/internal/corpus"
	"gauntlet/internal/fleet"
	"gauntlet/internal/obs"
)

// fleetFlags carries the coordinator/worker-specific flags; the shared
// campaign parameters ride in fuzzFlags.
type fleetFlags struct {
	listen       string
	connect      string
	forkWorkers  int
	leaseSlots   int64
	leaseTimeout time.Duration
	workerName   string
}

// listenAddr splits ADDR into a network: an address containing a path
// separator is a unix socket, anything else TCP — fleet campaigns on one
// box use sockets, cross-box ones host:port, with no extra flag.
func listenAddr(addr string) (network, address string) {
	if strings.Contains(addr, "/") {
		return "unix", addr
	}
	return "tcp", addr
}

// fleetStatusz is the coordinator's /statusz document.
type fleetStatusz struct {
	Mode    string            `json:"mode"`
	PID     int               `json:"pid"`
	Started time.Time         `json:"started"`
	Now     time.Time         `json:"now"`
	Fleet   fleet.FleetStatus `json:"fleet"`
	Corpus  corpus.Stats      `json:"corpus"`
}

// fleetRunConfig translates the shared fuzz flags into the wire config
// every worker receives. Fleet campaigns are pure-generation by
// construction (lease replay must not depend on cross-lease corpus
// state), so an explicit -mutate-ratio > 0 is refused rather than
// silently ignored.
func fleetRunConfig(ff fuzzFlags) (fleet.RunConfig, error) {
	if ff.explicit["mutate-ratio"] && ff.mutateRatio > 0 {
		return fleet.RunConfig{}, fmt.Errorf("-mutate-ratio %g is incompatible with fleet mode: leases replay as pure functions of their seeds, which mutation's cross-lease corpus dependence breaks", ff.mutateRatio)
	}
	if ff.epochPrograms > 0 {
		return fleet.RunConfig{}, fmt.Errorf("-epoch-programs is incompatible with fleet mode: each worker runs one engine for its whole connection and rotates its solver context every %d programs itself", core.DefaultEpochPrograms)
	}
	return runConfig(ff)
}

// runConfig translates the shared fuzz flags into campaign settings: the
// fleet's wire config, which fleet.EngineConfig turns into the engine
// configuration for fleet workers and single-process runs alike. A
// defect or backend typo fails here, at startup.
func runConfig(ff fuzzFlags) (fleet.RunConfig, error) {
	run := fleet.RunConfig{
		Seed:            ff.seed,
		Backend:         ff.backend,
		EngineWorkers:   ff.workers,
		PacketTests:     ff.packets,
		ConcolicOff:     !ff.concolic,
		Reduce:          ff.reduce,
		StageTimeoutMs:  ff.stageTimeout.Milliseconds(),
		OracleTimeoutMs: ff.oracleTimeout.Milliseconds(),
		Defects:         splitDefects(ff.defects),
	}
	_, err := fleet.EngineConfig(&run)
	return run, err
}

func splitDefects(list string) []string {
	var out []string
	for _, id := range strings.Split(list, ",") {
		if id = strings.TrimSpace(id); id != "" {
			out = append(out, id)
		}
	}
	return out
}

// coordinatorMain runs the fleet coordinator: shard the seed budget into
// leases, serve them to workers, merge results in canonical order, own
// the journal/checkpoint, optionally fork a local worker fleet.
func coordinatorMain(ff fuzzFlags, fl fleetFlags) {
	fail := func(format string, args ...any) { exitf(2, format, args...) }
	if fl.listen == "" {
		fail("coordinator mode requires -listen ADDR (host:port or a socket path)")
	}
	if ff.seeds <= 0 {
		fail("coordinator mode requires a bounded -seeds budget")
	}
	run, err := fleetRunConfig(ff)
	if err != nil {
		fail("%v", err)
	}

	cfg := fleet.CoordinatorConfig{
		Run:          run,
		StartSeed:    ff.start,
		Seeds:        ff.seeds,
		LeaseSlots:   fl.leaseSlots,
		LeaseTimeout: fl.leaseTimeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}

	// Durable state and resume, the serve-mode discipline with the
	// coordinator as the single persistence owner: journal write-ahead
	// and checkpoints happen inside the release path, which carries the
	// resumed checkpoint's watermark, corpus and totals forward.
	state, cp, known := openState(ff, 2)
	if state != nil {
		defer state.Close()
		cfg.State = state
	}
	if cp != nil {
		cfg.Run.Seed = cp.Seed
		cfg.Resume = cp
	}
	cfg.KnownFindings = known

	// Findings stream: human line to stderr, JSONL record to the sink —
	// the fuzz-mode shape with the coordinator as the single emitter.
	sink, closeSink := openJSONL(ff.jsonl, 2)
	defer closeSink()
	jw := newJSONLWriter(sink, func(what string, err error) {
		fmt.Fprintf(os.Stderr, "p4gauntlet: jsonl %s record lost: %v\n", what, err)
	})
	cfg.OnFinding = func(f core.Finding) { reportFinding(os.Stderr, jw, f) }

	if ff.httpAddr != "" {
		cfg.Obs = obs.NewRegistry()
	}
	coord, err := fleet.NewCoordinator(cfg)
	if err != nil {
		fail("%v", err)
	}

	if ff.httpAddr != "" {
		started := time.Now()
		stopAdmin := startAdmin(ff.httpAddr, obs.AdminConfig{
			Metrics: cfg.Obs,
			Health:  coord.Health,
			Status: func() any {
				return fleetStatusz{
					Mode: "coordinator", PID: os.Getpid(),
					Started: started, Now: time.Now(),
					Fleet: coord.Status(), Corpus: coord.Corpus().Stats(),
				}
			},
		}, 2)
		defer stopAdmin()
	}

	network, address := listenAddr(fl.listen)
	if network == "unix" {
		os.Remove(address) // a stale socket from a killed coordinator
	}
	ln, err := net.Listen(network, address)
	if err != nil {
		fail("listen: %v", err)
	}
	if network == "unix" {
		defer os.Remove(address)
	}
	fmt.Fprintf(os.Stderr, "fleet: coordinator listening on %s://%s (%d seeds, %d-slot leases)\n",
		network, address, ff.seeds, cfg.LeaseSlots)

	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	// -fleet N forks N worker processes of this binary against our own
	// socket: one-command local scale-out. The workers draw all campaign
	// configuration over the wire, so the only flags they need are the
	// address and a name.
	var forked []*exec.Cmd
	if fl.forkWorkers > 0 {
		self, err := os.Executable()
		if err != nil {
			fail("fork workers: %v", err)
		}
		for i := 0; i < fl.forkWorkers; i++ {
			cmd := exec.CommandContext(ctx, self,
				"-mode", "worker",
				"-connect", fl.listen,
				"-worker-name", fmt.Sprintf("w%d", i))
			cmd.Stdout = os.Stderr
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				fail("fork worker %d: %v", i, err)
			}
			forked = append(forked, cmd)
		}
		fmt.Fprintf(os.Stderr, "fleet: forked %d local workers\n", fl.forkWorkers)
	}

	serveErr := coord.Serve(ctx, ln)
	for _, cmd := range forked {
		cmd.Wait() // drained workers exit on their own; reap them
	}
	if serveErr != nil {
		exitf(1, "fleet: %v", serveErr)
	}
	if err := coord.Err(); err != nil {
		exitf(1, "fleet: %v", err)
	}
	findings := coord.Findings()
	st := coord.Status()
	fmt.Fprintf(os.Stderr, "fleet: campaign complete: %d programs, %d findings (%d cross-lease duplicates suppressed), %d leases (%d re-issued)\n",
		st.Totals.Generated, len(findings), st.Duplicates, st.LeasesTotal, st.LeasesReissued)
	if len(findings) > 0 {
		os.Exit(1) // the bounded-campaign CI contract, as in fuzz mode
	}
}

// workerMain dials the coordinator (retrying while it boots) and streams
// leases through one engine until drained. Campaign configuration arrives
// over the wire.
func workerMain(fl fleetFlags) {
	if fl.connect == "" {
		exitf(2, "worker mode requires -connect ADDR")
	}
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()
	network, address := listenAddr(fl.connect)
	var conn net.Conn
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err = net.Dial(network, address)
		if err == nil {
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			exitf(1, "worker: dial %s: %v", fl.connect, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	name := fl.workerName
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	wcfg := fleet.WorkerConfig{
		Name: name,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if err := fleet.RunWorker(ctx, conn, wcfg); err != nil && ctx.Err() == nil {
		exitf(1, "worker: %v", err)
	}
}

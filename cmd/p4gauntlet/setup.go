package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"gauntlet/internal/obs"
	"gauntlet/internal/persist"
)

// exitf reports a fatal error on stderr and exits with code.
func exitf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "p4gauntlet: "+format+"\n", args...)
	os.Exit(code)
}

// openState opens the durable state directory of -state or -resume (nil
// when neither is set); an I/O failure exits with ioCode. Under -resume
// it also returns the dead incarnation's last checkpoint (nil if none was
// written) and the journal's fingerprints, which pre-seed dedup. The
// checkpoint's corpus and watermark are functions of the schedule, so an
// explicit -seed or -mutate-ratio contradicting it is refused; callers
// adopt its values otherwise.
func openState(ff fuzzFlags, ioCode int) (*persist.State, *persist.Checkpoint, []uint64) {
	dir := ff.stateDir
	if ff.resumeDir != "" {
		if dir != "" && dir != ff.resumeDir {
			exitf(2, "-state and -resume point at different directories")
		}
		dir = ff.resumeDir
	}
	if dir == "" {
		return nil, nil, nil
	}
	st, err := persist.Open(dir)
	if err != nil {
		exitf(ioCode, "state: %v", err)
	}
	if ff.resumeDir == "" {
		return st, nil, nil
	}
	cp, err := st.LoadCheckpoint()
	if err != nil {
		exitf(ioCode, "resume: %v", err)
	}
	watermark := ff.start
	if cp != nil {
		if ff.explicit["seed"] && ff.seed != cp.Seed {
			exitf(2, "resume: -seed %d contradicts checkpoint seed %d", ff.seed, cp.Seed)
		}
		if ff.explicit["mutate-ratio"] && ff.mutateRatio != cp.MutateRatio {
			exitf(2, "resume: -mutate-ratio %g contradicts checkpoint %g", ff.mutateRatio, cp.MutateRatio)
		}
		watermark = cp.NextSlot
	}
	known, nrec, err := st.KnownFindings()
	if err != nil {
		exitf(ioCode, "resume: journal: %v", err)
	}
	fmt.Fprintf(os.Stderr, "resume: watermark slot %d, %d journaled findings pre-seeding dedup\n", watermark, nrec)
	return st, cp, known
}

// openJSONL opens the -jsonl sink: none for "", stdout for "-", FILE
// (appending) otherwise; an open failure exits with ioCode. closeSink
// releases a file sink.
func openJSONL(path string, ioCode int) (sink io.Writer, closeSink func()) {
	switch path {
	case "":
		return nil, func() {}
	case "-":
		return os.Stdout, func() {}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		exitf(ioCode, "%v", err)
	}
	return f, func() { f.Close() }
}

// startAdmin serves the admin plane (-http) on addr, exiting with ioCode
// when it cannot bind: a bad address fails the run at startup, not at
// first scrape. stop drains the listener gracefully.
func startAdmin(addr string, cfg obs.AdminConfig, ioCode int) (stop func()) {
	admin, err := obs.StartAdmin(addr, cfg)
	if err != nil {
		exitf(ioCode, "%v", err)
	}
	fmt.Fprintf(os.Stderr, "admin: serving /metrics /statusz /healthz /debug/pprof on http://%s\n", admin.Addr())
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if err := admin.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "p4gauntlet: admin shutdown: %v\n", err)
		}
	}
}

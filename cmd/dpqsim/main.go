// Command dpqsim runs the paper's protocols on the simulated network, one
// mode per experiment shape, and prints the protocol metrics plus a
// correctness verdict. Every mode takes the shared instrumentation flags
// (-trace-jsonl, -metrics-out, -pprof) and is deterministic per seed:
// rerunning with identical flags produces byte-identical output.
//
// Usage:
//
//	dpqsim skeap   [-n 64] [-p 4] [-lambda 4] [-rounds 50] [-mix 0.6] [-seed 1] [-v]
//	dpqsim seap    [-n 64] [-prios 1048576] [-lambda 4] [-rounds 50] [-mix 0.6] [-seed 1] [-v]
//	dpqsim kselect [-n 64] [-m 4096] [-k 2048] [-seed 1]
//	dpqsim phases  [-proto skeap|seap] [-n 16] [-ops 3] [-seed 1]
//	dpqsim churn   [-proto skeap|seap] [-n 8] [-waves 6] [-ops 20] [-seed 1]
//	dpqsim churn   -faults drop20dup [-fault-seed 7] [-trace-out faults.txt]
//	dpqsim churn   -trace-in faults.txt
//
// skeap and seap drive a heap under a generated (or recorded) workload;
// kselect runs one standalone selection and checks it against a local
// sort; phases renders the message anatomy of one batch; churn interleaves
// operation waves with joins and leaves or, with -faults, with message
// loss, duplication and crashes behind reliable transports.
// `dpqsim <mode> -h` lists a mode's flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"dpq/internal/obs"
	"dpq/internal/sim"
)

var modes = map[string]func(){
	"skeap":   skeapMain,
	"seap":    seapMain,
	"kselect": kselectMain,
	"phases":  phasesMain,
	"churn":   churnMain,
}

// mode is the mode word of this invocation; it prefixes every diagnostic.
var mode string

func main() {
	if len(os.Args) >= 2 {
		mode = os.Args[1]
	}
	run, ok := modes[mode]
	if !ok {
		names := make([]string, 0, len(modes))
		for name := range modes {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: dpqsim <mode> [flags]\nmodes: %v\n", names)
		os.Exit(2)
	}
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dpqsim %s [flags]\n", mode)
		flag.PrintDefaults()
	}
	run()
}

// parse parses the mode's flags, which follow the mode word.
func parse() {
	flag.CommandLine.Parse(os.Args[2:]) // ExitOnError: never returns an error
}

// fail reports a fatal condition and exits with code: 1 for a run that
// went wrong, 2 for an invocation that cannot run.
func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dpqsim %s: %s\n", mode, fmt.Sprintf(format, args...))
	os.Exit(code)
}

// start opens the instrumentation outputs the flags ask for.
func start(of *obs.Flags) *obs.Session {
	sess, err := of.Start()
	if err != nil {
		fail(1, "%v", err)
	}
	return sess
}

// finish flushes the instrumentation outputs with the engine's totals.
func finish(sess *obs.Session, eng sim.Engine) {
	if err := sess.Close(eng.Metrics()); err != nil {
		fail(1, "%v", err)
	}
}

// syncEngine builds spec as a mode's round engine, with the session's
// observer.
func syncEngine(spec sim.Spec, sess *obs.Session) *sim.SyncEngine {
	spec.Observer = sess.Observer()
	return sim.Build(spec).(*sim.SyncEngine)
}

// CLI wiring shared by the cmd/* binaries: every simulator registers the
// same instrumentation flags and forwards its engine's observer and final
// metrics here.
package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	rpprof "runtime/pprof"

	"dpq/internal/sim"
)

// Flags holds the instrumentation flag values of one binary.
type Flags struct {
	TraceJSONL string
	MetricsOut string
	PProfAddr  string
	CPUProfile string
	MemProfile string
}

// AddFlags registers -trace-jsonl, -metrics-out, -pprof, -cpuprofile and
// -memprofile on the default flag set and returns the destination struct.
// Call before flag.Parse.
func AddFlags() *Flags {
	f := &Flags{}
	flag.StringVar(&f.TraceJSONL, "trace-jsonl", "", "write a JSONL delivery trace (schema dpq-trace/1) to FILE")
	flag.StringVar(&f.MetricsOut, "metrics-out", "", "write metrics JSON (engine totals, per-kind counters, per-phase stats) to FILE")
	flag.StringVar(&f.PProfAddr, "pprof", "", "serve net/http/pprof on ADDR (e.g. localhost:6060)")
	flag.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of the whole run to FILE")
	flag.StringVar(&f.MemProfile, "memprofile", "", "write an allocation profile to FILE when the run ends")
	return f
}

// Session is the live instrumentation of one simulator run.
type Session struct {
	flags     *Flags
	col       *Collector
	tw        *TraceWriter
	traceFile *os.File
	cpuFile   *os.File
	extras    map[string]any
}

// Start opens the requested outputs, starts the CPU profile and, with
// -pprof, serves the profiling endpoints in the background. The returned
// session is ready to observe; call Close when the run ends.
func (f *Flags) Start() (*Session, error) {
	s := &Session{flags: f, col: NewCollector()}
	if f.TraceJSONL != "" {
		file, err := os.Create(f.TraceJSONL)
		if err != nil {
			return nil, fmt.Errorf("obs: %v", err)
		}
		s.traceFile = file
		s.tw = NewTraceWriter(file)
	}
	if _, err := ServePProf(f.PProfAddr); err != nil {
		s.closeFiles()
		return nil, err
	}
	if f.CPUProfile != "" {
		file, err := os.Create(f.CPUProfile)
		if err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("obs: %v", err)
		}
		s.cpuFile = file
		if err := rpprof.StartCPUProfile(file); err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("obs: cpu profile: %v", err)
		}
	}
	return s, nil
}

// closeFiles releases the files Start opened, on its error paths.
func (s *Session) closeFiles() {
	for _, f := range []*os.File{s.traceFile, s.cpuFile} {
		if f != nil {
			f.Close()
		}
	}
}

// stopProfiles ends the CPU profile and writes the allocation profile.
func (s *Session) stopProfiles() error {
	if s.cpuFile != nil {
		rpprof.StopCPUProfile()
		if err := s.cpuFile.Close(); err != nil {
			return fmt.Errorf("obs: writing cpu profile: %v", err)
		}
	}
	if s.flags.MemProfile == "" {
		return nil
	}
	file, err := os.Create(s.flags.MemProfile)
	if err != nil {
		return fmt.Errorf("obs: %v", err)
	}
	runtime.GC() // up-to-date statistics, as go test -memprofile takes them
	err = rpprof.Lookup("allocs").WriteTo(file, 0)
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("obs: writing memory profile: %v", err)
	}
	return nil
}

// ServePProf binds addr and serves the net/http/pprof endpoints from a
// dedicated mux in the background. The bind is synchronous, so a bad or
// occupied address is an error the caller sees (and with port 0 the
// returned string carries the actual port). An empty addr is a no-op
// returning "". Binaries without per-run outputs (cmd/benchall) use it
// directly.
func ServePProf(addr string) (string, error) {
	if addr == "" {
		return "", nil
	}
	// A dedicated mux rather than http.DefaultServeMux: nothing else the
	// process registers globally can leak onto the profiling port.
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: pprof listen: %v", err)
	}
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintf(os.Stderr, "obs: pprof server: %v\n", err)
		}
	}()
	return ln.Addr().String(), nil
}

// Collector returns the session's collector, for protocols' SetObs hooks.
func (s *Session) Collector() *Collector { return s.col }

// Observer returns the engine observer for this session, or nil when no
// output was requested (so engines skip the callback entirely).
func (s *Session) Observer() func(sim.Delivery) {
	if s.flags.TraceJSONL == "" && s.flags.MetricsOut == "" {
		return nil
	}
	return Multi(s.col.Observer(), s.tw.Observer())
}

// metricsJSON is the -metrics-out document.
type metricsJSON struct {
	Engine struct {
		Rounds        int   `json:"rounds"`
		Messages      int64 `json:"messages"`
		TotalBits     int64 `json:"totalBits"`
		MaxMessageBit int   `json:"maxMessageBit"`
		Congestion    int   `json:"congestion"`
		Dropped       int64 `json:"dropped"`
		LostToCrash   int64 `json:"lostToCrash"`
	} `json:"engine"`
	Kinds  map[string]kindJSON `json:"kinds"`
	Phases []PhaseStats        `json:"phases"`
	Extras map[string]any      `json:"extras,omitempty"`
}

// SetExtra attaches a named section to the metrics JSON document — the
// network daemon exports its serving-layer stats (leases, WAL, admission
// control) as the "serve" section this way. Call before Close; the value
// must marshal with encoding/json.
func (s *Session) SetExtra(name string, v any) {
	if s.extras == nil {
		s.extras = map[string]any{}
	}
	s.extras[name] = v
}

type kindJSON struct {
	KindStats
	Hist map[string]int64 `json:"log2Hist,omitempty"`
}

// Close stops the profiles, flushes the trace and writes the profile files
// and the metrics JSON. m is the engine's final metrics (nil when the
// engine totals are unavailable).
func (s *Session) Close(m *sim.Metrics) error {
	if err := s.stopProfiles(); err != nil {
		return err
	}
	if s.tw != nil {
		err := s.tw.Flush()
		if cerr := s.traceFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("obs: writing trace: %v", err)
		}
	}
	if s.flags.MetricsOut == "" {
		return nil
	}
	var doc metricsJSON
	if m != nil {
		doc.Engine.Rounds = m.Rounds
		doc.Engine.Messages = m.Messages
		doc.Engine.TotalBits = m.TotalBits
		doc.Engine.MaxMessageBit = m.MaxMessageBit
		doc.Engine.Congestion = m.Congestion
		doc.Engine.Dropped = m.Dropped
		doc.Engine.LostToCrash = m.LostToCrash
	}
	doc.Kinds = map[string]kindJSON{}
	for name, ks := range s.col.Kinds() {
		kj := kindJSON{KindStats: ks, Hist: map[string]int64{}}
		for b, c := range ks.HistNonZero() {
			kj.Hist[fmt.Sprintf("%d", b)] = c
		}
		doc.Kinds[name] = kj
	}
	doc.Phases = s.col.Phases()
	doc.Extras = s.extras
	out, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(s.flags.MetricsOut, out, 0o644); err != nil {
		return fmt.Errorf("obs: writing metrics: %v", err)
	}
	return nil
}

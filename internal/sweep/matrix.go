// The sweep matrix: named experiments (bm.py-style) expanding into cell
// lists, the suite runner, and the dpq-sweep/2 result schema.
package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"

	"dpq/internal/relax"
)

// Experiment is a named group of cells.
type Experiment struct {
	Name  string `json:"name"`
	Desc  string `json:"desc"`
	Cells []Cell `json:"-"`
}

// MatrixOptions scales the default matrix.
type MatrixOptions struct {
	Quick bool
	Seed  uint64
}

func (o *MatrixOptions) defaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// DefaultMatrix returns the named sweep experiments. Quick shrinks every
// axis to CI size; the full matrix is what E26/E27 record.
func DefaultMatrix(opt MatrixOptions) []Experiment {
	opt.defaults()
	ns := []int{16, 64}
	rounds := 20
	zipfS := []float64{0.8, 1.2, 1.6}
	hotFracs := []float64{0, 0.25, 0.5}
	if opt.Quick {
		ns = []int{16}
		rounds = 10
		zipfS = []float64{1.2, 1.6}
		hotFracs = []float64{0, 0.5}
	}
	base := func(proto string, n int) Cell {
		bound := uint64(4096)
		if proto == ProtoSkeap {
			bound = skeapP
		}
		return Cell{
			Proto: proto, N: n, Rate: 2, InsertFrac: 0.65,
			Dist: "uniform", Pattern: "steady", BurstLen: 4,
			Rounds: rounds, Bound: bound, Seed: opt.Seed,
		}
	}

	var zipf, contention, phase, burst, relaxed []Cell
	for _, n := range ns {
		for _, proto := range []string{ProtoSkeap, ProtoSeap, ProtoKSelect} {
			for _, s := range zipfS {
				c := base(proto, n)
				c.Dist, c.ZipfS = "zipf", s
				zipf = append(zipf, c)
			}
		}
		for _, proto := range []string{ProtoSkeap, ProtoSeap} {
			for _, hf := range hotFracs {
				c := base(proto, n)
				c.Pattern, c.HotFrac, c.Rate = "hotspot", hf, 4
				contention = append(contention, c)
			}
			{
				c := base(proto, n)
				c.Pattern = "phaseshift"
				phase = append(phase, c)
				c2 := base(proto, n)
				c2.Pattern, c2.Dist, c2.ZipfS = "phaseshift", "zipf", 1.2
				phase = append(phase, c2)
			}
			for _, d := range []string{"uniform", "zipf"} {
				c := base(proto, n)
				c.Pattern, c.Dist = "burstdrain", d
				if d == "zipf" {
					c.ZipfS = 1.2
				}
				burst = append(burst, c)
			}
		}
	}
	// The relaxation frontier: for two workload profiles, the strict
	// baseline next to SampleK (k = 2, 4) and BatchLocal — the throughput
	// vs rank-error trade E28 tabulates. Seap-only: relax stores raw
	// priorities, so the arbitrary-priority protocol is the honest
	// baseline.
	for _, n := range ns {
		profiles := []func(*Cell){
			func(c *Cell) {}, // uniform/steady
			func(c *Cell) { c.Dist, c.ZipfS, c.Pattern, c.HotFrac = "zipf", 1.2, "hotspot", 0.25 },
		}
		for _, shape := range profiles {
			for _, rx := range []func(*Cell){
				func(c *Cell) {}, // strict baseline
				func(c *Cell) { c.Relax, c.RelaxK = "samplek", 2 },
				func(c *Cell) { c.Relax, c.RelaxK = "samplek", 4 },
				func(c *Cell) { c.Relax, c.RelaxBatch = "batchlocal", 8 },
			} {
				c := base(ProtoSeap, n)
				shape(&c)
				rx(&c)
				relaxed = append(relaxed, c)
			}
		}
	}
	return []Experiment{
		{Name: "zipf", Desc: "Zipf-skewed priorities, tunable exponent s", Cells: zipf},
		{Name: "contention", Desc: "hot-host fraction sweep (Hotspot pattern)", Cells: contention},
		{Name: "phase", Desc: "phase-shifting load: the heavy host set moves mid-run", Cells: phase},
		{Name: "burst", Desc: "burst/drain cycles: insert-only bursts, delete-only drains", Cells: burst},
		{Name: "relax", Desc: "relaxed DeleteMin: strict vs SampleK(k=2,4) vs BatchLocal, rank-error judged", Cells: relaxed},
	}
}

// ParseMatrix builds an ad-hoc experiment from a bm.py-style spec:
// semicolon-separated axes, each `key=v1,v2,...`, expanded as a cross
// product. Keys: proto, n, rate, dist, zipfs, pattern, hotfrac, burstlen,
// rounds, insertfrac, seed, relax, relaxk, relaxbatch.
//
//	-matrix "proto=skeap,seap;n=16,64;dist=zipf;zipfs=0.8,1.6"
func ParseMatrix(spec string, opt MatrixOptions) (Experiment, error) {
	opt.defaults()
	rounds := 20
	if opt.Quick {
		rounds = 10
	}
	cells := []Cell{{
		Proto: ProtoSkeap, N: 16, Rate: 2, InsertFrac: 0.65,
		Dist: "uniform", Pattern: "steady", BurstLen: 4,
		Rounds: rounds, Seed: opt.Seed,
	}}
	for _, axis := range strings.Split(spec, ";") {
		axis = strings.TrimSpace(axis)
		if axis == "" {
			continue
		}
		key, vals, ok := strings.Cut(axis, "=")
		if !ok {
			return Experiment{}, fmt.Errorf("sweep: bad matrix axis %q (want key=v1,v2,...)", axis)
		}
		var next []Cell
		for _, v := range strings.Split(vals, ",") {
			v = strings.TrimSpace(v)
			for _, c := range cells {
				if err := setAxis(&c, strings.ToLower(strings.TrimSpace(key)), v); err != nil {
					return Experiment{}, err
				}
				next = append(next, c)
			}
		}
		cells = next
	}
	// Fill the bound per protocol after the cross product is known.
	for i := range cells {
		if cells[i].Bound == 0 {
			if cells[i].Proto == ProtoSkeap {
				cells[i].Bound = skeapP
			} else {
				cells[i].Bound = 4096
			}
		}
	}
	return Experiment{Name: "matrix", Desc: spec, Cells: cells}, nil
}

// setAxis assigns one axis value into a cell.
func setAxis(c *Cell, key, v string) error {
	atoi := func() (int, error) { return strconv.Atoi(v) }
	atof := func() (float64, error) { return strconv.ParseFloat(v, 64) }
	var err error
	switch key {
	case "proto":
		if v != ProtoSkeap && v != ProtoSeap && v != ProtoKSelect {
			return fmt.Errorf("sweep: unknown proto %q", v)
		}
		c.Proto = v
	case "n":
		c.N, err = atoi()
	case "rate":
		c.Rate, err = atoi()
	case "dist":
		c.Dist = v
		if _, derr := c.dist(); derr != nil {
			return derr
		}
	case "zipfs":
		c.ZipfS, err = atof()
	case "pattern":
		c.Pattern = v
		if _, perr := c.pattern(); perr != nil {
			return perr
		}
	case "hotfrac":
		c.HotFrac, err = atof()
	case "burstlen":
		c.BurstLen, err = atoi()
	case "rounds":
		c.Rounds, err = atoi()
	case "insertfrac":
		c.InsertFrac, err = atof()
	case "seed":
		c.Seed, err = strconv.ParseUint(v, 10, 64)
	case "relax":
		// Only the mode name is validated here: the cross product may set
		// relaxk/relaxbatch in a later axis, so the full knob combination
		// is checked once per final cell, in RunCell.
		if _, rerr := relax.ParseMode(v); rerr != nil {
			return rerr
		}
		c.Relax = v
	case "relaxk":
		c.RelaxK, err = atoi()
	case "relaxbatch":
		c.RelaxBatch, err = atoi()
	default:
		return fmt.Errorf("sweep: unknown matrix key %q", key)
	}
	if err != nil {
		return fmt.Errorf("sweep: bad value %q for %s: %v", v, key, err)
	}
	return nil
}

// ExperimentResult is one experiment's executed cells.
type ExperimentResult struct {
	Name  string   `json:"name"`
	Desc  string   `json:"desc"`
	Cells []Result `json:"cells"`
}

// File is the dpq-sweep/2 result schema.
type File struct {
	Schema          string             `json:"schema"`
	GoVersion       string             `json:"goVersion"`
	GoMaxProcs      int                `json:"goMaxProcs"`
	Quick           bool               `json:"quick"`
	Seed            uint64             `json:"seed"`
	Twin            *Twin              `json:"twin"`
	Experiments     []ExperimentResult `json:"experiments"`
	Cells           int                `json:"cells"`
	Diverged        int                `json:"diverged"`
	ConformFailures int                `json:"conformFailures"`
}

// Schema is the result schema identifier; its version changes whenever a
// field leaves the file or changes meaning.
const Schema = "dpq-sweep/2"

// Clean reports whether every cell passed its envelope and conformed to
// the oracle.
func (f *File) Clean() bool {
	return f.Diverged == 0 && f.ConformFailures == 0
}

// Run executes the experiments against tw (nil = DefaultTwin) and
// aggregates the dpq-sweep/2 file. Progress lines go to progress when
// non-nil.
func Run(exps []Experiment, tw *Twin, opt MatrixOptions, progress io.Writer) (*File, error) {
	opt.defaults()
	if tw == nil {
		tw = DefaultTwin()
	}
	f := &File{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Quick:      opt.Quick,
		Seed:       opt.Seed,
		Twin:       tw,
	}
	for _, exp := range exps {
		er := ExperimentResult{Name: exp.Name, Desc: exp.Desc}
		for _, c := range exp.Cells {
			if progress != nil {
				fmt.Fprintf(progress, "sweep %s: %s\n", exp.Name, c.Label())
			}
			r, err := RunCell(c, tw)
			if err != nil {
				return nil, err
			}
			er.Cells = append(er.Cells, r)
			f.Cells++
			countCell(f, &r)
		}
		f.Experiments = append(f.Experiments, er)
	}
	return f, nil
}

// countCell folds one cell into the file's failure tallies.
func countCell(f *File, r *Result) {
	if r.Verdict != VerdictPass {
		f.Diverged++
	}
	if !r.Conform.OK {
		f.ConformFailures++
	}
}

// Encode writes the file as indented JSON.
func (f *File) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

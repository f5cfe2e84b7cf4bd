// The analytical twin: for every sweep cell it computes the cost
// envelopes the paper's theorems predict for that configuration, with
// leading constants fitted once against calibration runs (the shapes are
// derived from the theorems, only the constants are empirical — see
// DESIGN.md "Analytical twin").
//
// Shapes per protocol (n processes, Λ = max per-node injection rate,
// L = log₂ n):
//
//	Skeap (Thm 3.2):  rounds/batch ≤ Ar·L + Br        (Cor. 3.6)
//	                  congestion   ≤ Ac·Λ·L + Bc      (Lemma 3.7, Õ(Λ))
//	                  msg bits     ≤ Ab·Λ·L² + Bb     (Lemma 3.8)
//	Seap  (Thm 5.1):  rounds/cycle ≤ Ar·L + Br        (Lemma 5.3)
//	                  congestion   ≤ Ac·Λ·L + Bc      (Lemma 5.4)
//	                  msg bits     ≤ Ab·L + Bb        (Lemma 5.5 — O(log n),
//	                                                   independent of Λ)
//	KSelect (Thm 4.2): rounds      ≤ Ar·L + Br
//	                  congestion   ≤ Ac·L² + Bc       (Õ(1): polylog n,
//	                                                   independent of Λ)
//	                  msg bits     ≤ Ab·L + Bb
//
// A cell DIVERGES when any measured quantity exceeds its envelope: either
// the implementation regressed past its constants, or the workload
// escaped the theorem's regime — both are exactly what the sweep exists
// to surface.
package sweep

import (
	"fmt"
	"math"

	"dpq/internal/relax"
)

// Verdict values.
const (
	VerdictPass     = "PASS"
	VerdictDiverged = "DIVERGED"
)

// Coeffs are one protocol's fitted envelope constants.
type Coeffs struct {
	RoundsA float64 `json:"roundsA"`
	RoundsB float64 `json:"roundsB"`
	CongA   float64 `json:"congA"`
	CongB   float64 `json:"congB"`
	BitsA   float64 `json:"bitsA"`
	BitsB   float64 `json:"bitsB"`
	// RankA/RankB bound the mean rank error of relaxed SampleK cells:
	// mean ≤ RankA·(n/k) + RankB, the power-of-choice shape (the expected
	// rank of the best of k uniformly sampled host minima is Θ(n/k)). Only
	// the KeyRelaxSampleK entry uses them.
	RankA float64 `json:"rankA,omitempty"`
	RankB float64 `json:"rankB,omitempty"`
}

// KeyRelaxSampleK is the Twin.Coeffs key for the SampleK rank envelope.
const KeyRelaxSampleK = "relax-samplek"

// Twin maps protocol → fitted envelope constants.
type Twin struct {
	Coeffs map[string]Coeffs `json:"coeffs"`
}

// Envelope is the twin's prediction for one cell: upper bounds on the
// three cost measures of the paper's theorems, plus — for relaxed SampleK
// cells — the power-of-choice bound on the mean rank error.
type Envelope struct {
	RoundsPerBatch float64 `json:"roundsPerBatch"`
	Congestion     float64 `json:"congestion"`
	MaxMessageBits float64 `json:"maxMessageBits"`
	RankMean       float64 `json:"rankMean,omitempty"`
}

// DefaultTwin returns the committed calibration: constants fitted with
// `dpqsweep -calibrate` over the default matrix (seeds 1–3) and given
// ~2x headroom, so honest runs pass and a real regression — or a workload
// outside the theorems' regime — still trips the envelope. The shapes are
// the theorems'; only these numbers are empirical. The Seap and KSelect
// round constants are large because the distributed sort inside KSelect
// spends many rounds per O(log n) "step" at matrix scale (E24's phase
// breakdown) — the twin makes that cost an explicit, checked constant
// instead of an excuse.
func DefaultTwin() *Twin {
	return &Twin{Coeffs: map[string]Coeffs{
		ProtoSkeap:   {RoundsA: 8, RoundsB: 30, CongA: 18, CongB: 40, BitsA: 100, BitsB: 2600},
		ProtoSeap:    {RoundsA: 300, RoundsB: 120, CongA: 5, CongB: 60, BitsA: 20, BitsB: 900},
		ProtoKSelect: {RoundsA: 300, RoundsB: 300, CongA: 8, CongB: 30, BitsA: 20, BitsB: 600},
		// SampleK rank envelope: mean rank error ≤ RankA·(n/k) + RankB.
		// The intercept is large relative to the sequential power-of-choice
		// expectation (n+1)/(k+1) − 1 because the engine pipelines deletes
		// (up to MaxInFlight per host): concurrent probes race for the same
		// minima and each in-flight competitor inflates the delivered rank
		// by ~1. Constants fitted with ~2x headroom over the default
		// matrix's relax cells. BatchLocal has no analytical shape and is
		// measured, not bounded.
		KeyRelaxSampleK: {RankA: 9, RankB: 40},
	}}
}

// Predict computes the cell's envelope from the protocol's theorem shape
// and the twin's constants. Relaxed cells predict the rank-error envelope
// only: the relaxation engine's message economy is not the strict
// protocols', so the theorems' cost shapes do not apply to it.
func (tw *Twin) Predict(c Cell) Envelope {
	if o, err := c.relaxation(); err == nil && o.Enabled() {
		if o.Mode != relax.SampleK {
			return Envelope{} // BatchLocal: measured, not bounded
		}
		co := tw.Coeffs[KeyRelaxSampleK]
		k := o.K
		if k == 0 {
			k = relax.DefaultK
		}
		if k > c.N {
			k = c.N
		}
		return Envelope{RankMean: co.RankA*float64(c.N)/float64(k) + co.RankB}
	}
	co := tw.Coeffs[c.Proto]
	l := math.Log2(float64(c.N) + 1)
	lam := float64(c.Rate)
	if lam < 1 {
		lam = 1
	}
	switch c.Proto {
	case ProtoSeap:
		return Envelope{
			RoundsPerBatch: co.RoundsA*l + co.RoundsB,
			Congestion:     co.CongA*lam*l + co.CongB,
			MaxMessageBits: co.BitsA*l + co.BitsB,
		}
	case ProtoKSelect:
		return Envelope{
			RoundsPerBatch: co.RoundsA*l + co.RoundsB,
			Congestion:     co.CongA*l*l + co.CongB,
			MaxMessageBits: co.BitsA*l + co.BitsB,
		}
	default: // Skeap
		return Envelope{
			RoundsPerBatch: co.RoundsA*l + co.RoundsB,
			Congestion:     co.CongA*lam*l + co.CongB,
			MaxMessageBits: co.BitsA*lam*l*l + co.BitsB,
		}
	}
}

// Check verdicts a measurement against the cell's envelope, returning the
// prediction and one line per diverged metric (empty = PASS).
func (tw *Twin) Check(c Cell, m Measured) (Envelope, []string) {
	env := tw.Predict(c)
	if o, err := c.relaxation(); err == nil && o.Enabled() {
		// Rank-aware judging: a relaxed cell passes on its rank envelope
		// (SampleK) or unconditionally (BatchLocal, measured only) — its
		// strict-order divergence is the feature, not a failure.
		var div []string
		if o.Mode == relax.SampleK && m.RankMean > env.RankMean {
			div = append(div, fmt.Sprintf("mean rank error %.1f > predicted %.1f", m.RankMean, env.RankMean))
		}
		return env, div
	}
	var div []string
	if m.RoundsPerBatch > env.RoundsPerBatch {
		div = append(div, fmt.Sprintf("rounds/batch %.1f > predicted %.1f", m.RoundsPerBatch, env.RoundsPerBatch))
	}
	if float64(m.Congestion) > env.Congestion {
		div = append(div, fmt.Sprintf("congestion %d > predicted %.1f", m.Congestion, env.Congestion))
	}
	if float64(m.MaxMessageBits) > env.MaxMessageBits {
		div = append(div, fmt.Sprintf("max message %d bits > predicted %.1f", m.MaxMessageBits, env.MaxMessageBits))
	}
	return env, div
}

// Calibrate refits the twin's constants from executed cells: per protocol
// it finds the smallest leading coefficient that covers every measured
// cell with its shape (intercepts kept from tw), then multiplies by
// headroom. Cells whose protocol is missing from tw keep no entry.
func Calibrate(results []Result, base *Twin, headroom float64) *Twin {
	if headroom <= 0 {
		headroom = 2
	}
	out := &Twin{Coeffs: map[string]Coeffs{}}
	// Start from the base intercepts so tiny-n cells (where the additive
	// term dominates) do not blow up the leading coefficient.
	for proto, co := range base.Coeffs {
		if proto == KeyRelaxSampleK {
			// The rank envelope refits against the relaxed SampleK cells:
			// find the smallest RankA covering mean ≤ RankA·(n/k) + RankB.
			need := Coeffs{RankB: co.RankB}
			for _, r := range results {
				o, err := r.Cell.relaxation()
				if err != nil || o.Mode != relax.SampleK {
					continue
				}
				k := o.K
				if k == 0 {
					k = relax.DefaultK
				}
				if k > r.Cell.N {
					k = r.Cell.N
				}
				shape := float64(r.Cell.N) / float64(k)
				need.RankA = math.Max(need.RankA, (r.Measured.RankMean-need.RankB)/shape)
			}
			need.RankA = math.Max(need.RankA, 0) * headroom
			out.Coeffs[proto] = need
			continue
		}
		need := Coeffs{RoundsB: co.RoundsB, CongB: co.CongB, BitsB: co.BitsB}
		for _, r := range results {
			c := r.Cell
			if c.Proto != proto {
				continue
			}
			if o, err := c.relaxation(); err == nil && o.Enabled() {
				continue // relaxed cells calibrate the rank envelope only
			}
			l := math.Log2(float64(c.N) + 1)
			lam := float64(c.Rate)
			if lam < 1 {
				lam = 1
			}
			var roundsShape, congShape, bitsShape float64
			switch proto {
			case ProtoSeap:
				roundsShape, congShape, bitsShape = l, lam*l, l
			case ProtoKSelect:
				roundsShape, congShape, bitsShape = l, l*l, l
			default:
				roundsShape, congShape, bitsShape = l, lam*l, lam*l*l
			}
			need.RoundsA = math.Max(need.RoundsA, (r.Measured.RoundsPerBatch-need.RoundsB)/roundsShape)
			need.CongA = math.Max(need.CongA, (float64(r.Measured.Congestion)-need.CongB)/congShape)
			need.BitsA = math.Max(need.BitsA, (float64(r.Measured.MaxMessageBits)-need.BitsB)/bitsShape)
		}
		need.RoundsA = math.Max(need.RoundsA, 0) * headroom
		need.CongA = math.Max(need.CongA, 0) * headroom
		need.BitsA = math.Max(need.BitsA, 0) * headroom
		out.Coeffs[proto] = need
	}
	return out
}

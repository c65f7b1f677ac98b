package delay

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/rip-eda/rip/internal/tech"
)

// This file is the crosstalk-aware extension of the Elmore model. Wire
// capacitance splits into a ground component cg and a neighbor coupling
// component cc (wire.Segment.CcFPerM); the charge a switching victim must
// move through cc depends on what the neighbors do, modeled by a Miller
// factor MF so the effective density is cg + MF·cc. Everything downstream
// exploits that the model is LINEAR in MF: every interval quantity under
// factor MF is (ground part) + MF·(coupling part), so the DP precomputes
// the two parts once (StageRCM + StageCcMc) and mixes them per scheme.
//
// A solve picks one aggressor assumption for the whole net — the MF the
// plain (unprotected) wire sees — and may additionally allow per-interval
// countermeasure schemes:
//
//   - staggered: repeaters on neighbor tracks are offset by half a stage,
//     so a victim stage sees each aggressor switching in one direction for
//     half its length and the other direction for the other half; worst-
//     and best-case Miller factors average toward the quiet factor, which
//     bounds the effective factor by MillerMax/2 (Orion's staggering
//     model). Free: it is a placement discipline, not extra area.
//   - shielded: a grounded track is routed alongside the interval, which
//     drops coupling entirely (MF = 0) at an area price of
//     tech.ShieldUPerM · length, paid in the width objective.
//
// The scheme SETS form a lattice: every allowed set contains plain, and
// "auto" ⊇ "staggered"/"shielded" ⊇ "plain". A superset can only improve
// the optimum, which is what makes "staggered delay ≤ pessimistic delay"
// a structural property rather than a numeric accident.

// Scheme values identify the per-interval countermeasure a coupled DP
// solution chose. They are raw uint8 so dp can pack them into its arena.
const (
	SchemePlain     uint8 = 0
	SchemeStaggered uint8 = 1
	SchemeShielded  uint8 = 2
)

// SchemeName returns the wire name of a scheme value ("plain",
// "staggered", "shielded").
func SchemeName(s uint8) string {
	switch s {
	case SchemeStaggered:
		return "staggered"
	case SchemeShielded:
		return "shielded"
	}
	return "plain"
}

// Aggressor is the neighbor-switching assumption a coupled solve prices
// the plain (unprotected) wire under.
type Aggressor int

const (
	// AggressorNone disables the coupling model: the classic ground-only
	// solve, regardless of the technology's coupling fields.
	AggressorNone Aggressor = iota
	// AggressorWorst prices coupling at MillerMax (neighbors switching
	// opposite to the victim) — the pessimistic signoff assumption.
	AggressorWorst
	// AggressorBest prices coupling at MillerMin (neighbors switching
	// with the victim).
	AggressorBest
	// AggressorQuiet prices coupling at factor 1 (neighbors static).
	AggressorQuiet
)

// ParseAggressor maps the wire token to an Aggressor. "" and "none" are
// both the disabled model — "none" exists so forwarded jobs can state
// explicitly that the client asked for an uncoupled solve.
func ParseAggressor(s string) (Aggressor, error) {
	switch s {
	case "", "none":
		return AggressorNone, nil
	case "worst":
		return AggressorWorst, nil
	case "best":
		return AggressorBest, nil
	case "quiet":
		return AggressorQuiet, nil
	}
	return AggressorNone, fmt.Errorf(`delay: unknown aggressor %q (want "worst", "best", "quiet" or "none")`, s)
}

// String returns the wire token; AggressorNone renders as "none".
func (a Aggressor) String() string {
	switch a {
	case AggressorWorst:
		return "worst"
	case AggressorBest:
		return "best"
	case AggressorQuiet:
		return "quiet"
	}
	return "none"
}

// SchemeMode selects which countermeasure schemes a coupled solve may use
// per interval. Every mode includes plain.
type SchemeMode int

const (
	// SchemePlainOnly allows no countermeasures.
	SchemePlainOnly SchemeMode = iota
	// SchemeModeStaggered allows plain and staggered.
	SchemeModeStaggered
	// SchemeModeShielded allows plain and shielded.
	SchemeModeShielded
	// SchemeModeAuto allows all three.
	SchemeModeAuto
)

// ParseSchemeMode maps the wire token to a SchemeMode. "" means plain.
func ParseSchemeMode(s string) (SchemeMode, error) {
	switch s {
	case "", "plain":
		return SchemePlainOnly, nil
	case "staggered":
		return SchemeModeStaggered, nil
	case "shielded":
		return SchemeModeShielded, nil
	case "auto":
		return SchemeModeAuto, nil
	}
	return SchemePlainOnly, fmt.Errorf(`delay: unknown scheme %q (want "plain", "staggered", "shielded" or "auto")`, s)
}

// String returns the wire token; SchemePlainOnly renders as "plain".
func (m SchemeMode) String() string {
	switch m {
	case SchemeModeStaggered:
		return "staggered"
	case SchemeModeShielded:
		return "shielded"
	case SchemeModeAuto:
		return "auto"
	}
	return "plain"
}

// Coupling is one resolved crosstalk scenario: the per-scheme Miller
// factors and objective costs a solve prices intervals with. Construct
// with Scenario.Resolve or NewCoupling; treat as read-only and share
// freely.
type Coupling struct {
	// Aggressor and Mode name the scenario the coupling was resolved
	// from (AggressorNone and SchemePlainOnly for an explicit factor).
	Aggressor Aggressor
	Mode      SchemeMode
	// MF[s] is the effective Miller factor of scheme s (indexed by the
	// Scheme* constants). MF[SchemeShielded] is always 0.
	MF [3]float64
	// CostUPerM[s] is the per-meter width-objective cost of scheme s;
	// only shielding is non-zero.
	CostUPerM [3]float64
	// Schemes lists the allowed schemes, SchemePlain first. Generation
	// order is part of the DP's determinism contract: plain-first makes
	// zero-coupling duplicate kills pick the plain option.
	Schemes []uint8
}

// NewCoupling resolves an (aggressor, mode) pair against a technology.
// It returns (nil, nil) for AggressorNone — the uncoupled model — and an
// error when the node has no coupling model (MillerMax == 0).
func NewCoupling(t *tech.Technology, agg Aggressor, mode SchemeMode) (*Coupling, error) {
	return Scenario{agg: agg, mode: mode}.Resolve(t)
}

// Scenario is the crosstalk assumption one line solve is priced under:
// the zero value is the classic uncoupled model, any other value a named
// aggressor with a scheme mode or an explicit Miller factor with no
// countermeasures. Only ParseScenario builds non-zero values, so every
// Scenario is well formed and nothing downstream re-checks its tokens.
// Scenarios compare with ==.
type Scenario struct {
	agg   Aggressor
	mode  SchemeMode
	mf    float64
	hasMF bool
}

// ParseScenario builds a Scenario from its wire tokens: an aggressor (see
// ParseAggressor), a scheme (see ParseSchemeMode) and an explicit Miller
// factor (nil when absent). It refuses unknown tokens, a scheme without
// a coupled aggressor, a factor mixed with either token, and a factor
// that is not finite and non-negative.
func ParseScenario(aggressor, scheme string, mf *float64) (Scenario, error) {
	if mf != nil {
		if aggressor != "" || scheme != "" {
			return Scenario{}, fmt.Errorf("delay: give mf or an aggressor/scheme scenario, not both")
		}
		if x := *mf; math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return Scenario{}, fmt.Errorf("delay: mf %g is not a finite non-negative factor", x)
		}
		return Scenario{mf: *mf, hasMF: true}, nil
	}
	agg, err := ParseAggressor(aggressor)
	if err != nil {
		return Scenario{}, err
	}
	mode, err := ParseSchemeMode(scheme)
	if err != nil {
		return Scenario{}, err
	}
	if agg == AggressorNone && scheme != "" {
		return Scenario{}, fmt.Errorf("delay: scheme %q needs an aggressor (worst, best or quiet)", scheme)
	}
	return Scenario{agg: agg, mode: mode}, nil
}

// Resolve prices the scenario on a technology: nil for an uncoupled
// scenario, otherwise the per-scheme Miller factors and costs a solve
// uses. It refuses a coupled scenario on a node without a coupling model
// (MillerMax == 0) and an explicit factor above the node's MillerMax.
func (s Scenario) Resolve(t *tech.Technology) (*Coupling, error) {
	if !s.hasMF && s.agg == AggressorNone {
		return nil, nil
	}
	if !t.HasCoupling() {
		return nil, fmt.Errorf("delay: technology %s has no coupling model (MillerMax is 0)", t.Name)
	}
	mf := s.mf
	switch {
	case s.hasMF:
		if mf > t.MillerMax {
			return nil, fmt.Errorf("delay: Miller factor %g outside [0, %g] for technology %s", mf, t.MillerMax, t.Name)
		}
	case s.agg == AggressorWorst:
		mf = t.MillerMax
	case s.agg == AggressorBest:
		mf = t.MillerMin
	case s.agg == AggressorQuiet:
		mf = 1
	default:
		return nil, fmt.Errorf("delay: invalid aggressor %d", s.agg)
	}
	c := &Coupling{Aggressor: s.agg, Mode: s.mode}
	c.MF[SchemePlain] = mf
	// Staggering bounds the factor by MillerMax/2 but never raises it
	// above the plain assumption (a best-case aggressor is already ≤ it).
	c.MF[SchemeStaggered] = math.Min(mf, t.MillerMax/2)
	c.CostUPerM[SchemeShielded] = t.ShieldUPerM
	c.Schemes = append(c.Schemes, SchemePlain)
	switch s.mode {
	case SchemePlainOnly:
	case SchemeModeStaggered:
		c.Schemes = append(c.Schemes, SchemeStaggered)
	case SchemeModeShielded:
		c.Schemes = append(c.Schemes, SchemeShielded)
	case SchemeModeAuto:
		c.Schemes = append(c.Schemes, SchemeStaggered, SchemeShielded)
	default:
		return nil, fmt.Errorf("delay: invalid scheme mode %d", s.mode)
	}
	return c, nil
}

// AppendKey appends the scenario's cache-key suffix: nothing when
// uncoupled, "|m" and the factor (7 significant digits, like every float
// of a signature) or "|a" aggressor "|s" mode otherwise.
func (s Scenario) AppendKey(b *strings.Builder) {
	switch {
	case s.hasMF:
		b.WriteString("|m")
		b.WriteString(strconv.FormatFloat(s.mf, 'e', 6, 64))
		b.WriteByte(',')
	case s.agg != AggressorNone:
		b.WriteString("|a")
		b.WriteString(s.agg.String())
		b.WriteString("|s")
		b.WriteString(s.mode.String())
	}
}

// Tokens returns the scenario's normalized wire tokens — all empty when
// uncoupled, the aggressor and mode names ("plain" included), or the
// factor alone — which ParseScenario turns back into s.
func (s Scenario) Tokens() (aggressor, scheme string, mf *float64) {
	switch {
	case s.hasMF:
		x := s.mf
		return "", "", &x
	case s.agg != AggressorNone:
		return s.agg.String(), s.mode.String(), nil
	}
	return "", "", nil
}

// MinMF returns the smallest Miller factor over the allowed schemes — the
// admissible per-interval floor remaining-delay bounds must assume.
func (c *Coupling) MinMF() float64 {
	min := c.MF[c.Schemes[0]]
	for _, s := range c.Schemes[1:] {
		if c.MF[s] < min {
			min = c.MF[s]
		}
	}
	return min
}

// StageCcMc appends, for each of the len(points)-1 intervals between
// consecutive points, the interval's unscaled coupling capacitance and
// coupling self-delay to cc and mc, returning the extended slices — the
// coupling companion of StageRCM. An interval under Miller factor MF has
// effective capacitance C + MF·Cc and self-delay M + MF·Mc.
func (e *Evaluator) StageCcMc(points []float64, cc, mc []float64) ([]float64, []float64) {
	for i := 0; i+1 < len(points); i++ {
		a, b := points[i], points[i+1]
		cc = append(cc, e.Line.Cc(a, b))
		mc = append(mc, e.Line.Mc(a, b))
	}
	return cc, mc
}

// CoupledTotal evaluates the Elmore delay of the assignment under the
// coupling scenario, with schemes[i] the countermeasure of the i-th
// interval of the candidate grid points (so len(schemes) must equal
// len(points)-1). Every assignment position must coincide with an
// interior grid point: schemes are properties of grid intervals, and an
// off-grid repeater would straddle two of them. The walk mirrors the DP's
// receiver-to-driver accumulation so verification sees the same physics
// the solver priced, without requiring bitwise-identical rounding.
func (e *Evaluator) CoupledTotal(points []float64, schemes []uint8, cpl *Coupling, a Assignment) (float64, error) {
	if cpl == nil {
		return 0, fmt.Errorf("delay: CoupledTotal needs a coupling scenario")
	}
	if len(schemes) != len(points)-1 {
		return 0, fmt.Errorf("delay: %d schemes for %d grid intervals", len(schemes), len(points)-1)
	}
	t := e.Tech
	ri := a.N() - 1
	c := t.Co * e.Wr
	d := 0.0
	for i := len(schemes) - 1; i >= 0; i-- {
		lo, hi := points[i], points[i+1]
		s := schemes[i]
		if s >= uint8(len(cpl.MF)) {
			return 0, fmt.Errorf("delay: invalid scheme %d at interval %d", s, i)
		}
		mf := cpl.MF[s]
		d += e.Line.R(lo, hi)*c + e.Line.M(lo, hi) + mf*e.Line.Mc(lo, hi)
		c += e.Line.C(lo, hi) + mf*e.Line.Cc(lo, hi)
		if i > 0 && ri >= 0 && a.Positions[ri] == points[i] {
			w := a.Widths[ri]
			d += t.Rs*t.Cp + t.Rs/w*c
			c = t.Co * w
			ri--
		}
	}
	if ri >= 0 {
		return 0, fmt.Errorf("delay: repeater at %g is not on the candidate grid", a.Positions[ri])
	}
	d += t.Rs*t.Cp + t.Rs/e.Wd*c
	return d, nil
}

// SchemeLengths sums the lengths of staggered and shielded intervals of a
// per-interval scheme vector over the grid points.
func SchemeLengths(points []float64, schemes []uint8) (stagger, shield float64) {
	for i, s := range schemes {
		switch s {
		case SchemeStaggered:
			stagger += points[i+1] - points[i]
		case SchemeShielded:
			shield += points[i+1] - points[i]
		}
	}
	return stagger, shield
}

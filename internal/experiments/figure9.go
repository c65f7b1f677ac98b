package experiments

import (
	"fmt"
	"io"
	"strings"

	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/power"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
)

// Fig9Row is one node's aggregate of the crosstalk countermeasure study:
// the power needed to close the same absolute timing budget under the
// pessimistic coupling model (worst-case Miller factor, no
// countermeasures) versus with staggering allowed.
type Fig9Row struct {
	// Tech is the node's canonical name.
	Tech string
	// AvgPowerPlainMW is the mean repeater+wire power per net, in
	// milliwatts, when every budget is closed under worst-case coupling
	// with countermeasures disabled.
	AvgPowerPlainMW float64
	// AvgPowerStagMW is the mean power for the same nets and the same
	// absolute budgets when the solver may stagger repeaters to halve the
	// worst-case Miller factor.
	AvgPowerStagMW float64
	// SavingsPct is the mean power saving of staggering, in percent.
	SavingsPct float64
	// AvgStaggerUM is the mean staggered wire length per net in microns —
	// how much of the line the solver actually chose to stagger.
	AvgStaggerUM float64
	// Infeasible counts nets either pass could not close.
	Infeasible int
}

// Figure9Result is the crosstalk study: per node, the cost of coupling
// pessimism and what scheme-aware solving buys back.
type Figure9Result struct {
	// Nets is the per-node corpus size.
	Nets int
	// Multiplier is the timing target relative to each net's pessimistic
	// coupled τmin, fixed across both passes.
	Multiplier float64
	// Rows are ordered by node, shrink order 180→65.
	Rows []Fig9Row
}

// Figure9 runs the crosstalk countermeasure study on every built-in
// node: pass one solves each net for minimum power under worst-case
// aggressor coupling with no countermeasures (the pessimistic sign-off
// model) at target 1.2×τmin; pass two re-solves the SAME absolute
// budgets with staggering allowed, so any power difference is purely
// the countermeasure — not a moved target. Both passes ride one
// multi-technology engine, and the coupled cache signatures keep the
// two scenarios from contaminating each other.
func Figure9(seed int64, nets int) (*Figure9Result, error) {
	const mult = 1.2
	reg := tech.DefaultRegistry()
	multi, err := engine.NewMulti(reg, "180nm", engine.Options{})
	if err != nil {
		return nil, err
	}
	nodeNames := tech.BuiltinNames()
	worstPlain, err := delay.ParseScenario("worst", "plain", nil)
	if err != nil {
		return nil, err
	}
	worstStaggered, err := delay.ParseScenario("worst", "staggered", nil)
	if err != nil {
		return nil, err
	}

	type netTag struct {
		tech string
		idx  int
	}
	var plainJobs []engine.Job
	var tags []netTag
	models := make(map[string]*power.Model, len(nodeNames))
	for _, name := range nodeNames {
		node, _, err := reg.Get(name)
		if err != nil {
			return nil, err
		}
		models[name], err = power.NewModel(node)
		if err != nil {
			return nil, err
		}
		cfg, err := netgen.DefaultConfig(node)
		if err != nil {
			return nil, err
		}
		corpus, err := netgen.Corpus(seed, nets, cfg)
		if err != nil {
			return nil, err
		}
		for i, n := range corpus {
			plainJobs = append(plainJobs, engine.Job{
				Net: n, Tech: name, TargetMult: mult, Scenario: worstPlain,
			})
			tags = append(tags, netTag{tech: name, idx: i})
		}
	}

	plainRes := multi.Run(plainJobs)

	// Pass two: the exact absolute budget each pessimistic solve closed,
	// re-solved with staggering on the menu. The staggered search space
	// contains every plain candidate, so a budget feasible pessimistically
	// stays feasible here — at no more power.
	stagJobs := make([]engine.Job, 0, len(plainRes))
	for i, r := range plainRes {
		if r.Err != nil {
			return nil, fmt.Errorf("experiments: figure 9 net %q on %s (plain): %w", r.Net.Name, tags[i].tech, r.Err)
		}
		stagJobs = append(stagJobs, engine.Job{
			Net: r.Net, Tech: tags[i].tech, Target: r.Target, Scenario: worstStaggered,
		})
	}
	stagRes := multi.Run(stagJobs)

	type acc struct {
		plainMW, stagMW, stagUM float64
		solved, infeasible      int
	}
	accs := make(map[string]*acc, len(nodeNames))
	for _, name := range nodeNames {
		accs[name] = &acc{}
	}
	for i, sr := range stagRes {
		if sr.Err != nil {
			return nil, fmt.Errorf("experiments: figure 9 net %q on %s (staggered): %w", sr.Net.Name, tags[i].tech, sr.Err)
		}
		a := accs[tags[i].tech]
		pSol := plainRes[i].Res.Solution
		sSol := sr.Res.Solution
		if !pSol.Feasible || !sSol.Feasible {
			a.infeasible++
			continue
		}
		m := models[tags[i].tech]
		wireC := sr.Net.Line.TotalC()
		a.plainMW += m.Report(pSol.TotalWidth, wireC).TotalW() * 1e3
		a.stagMW += m.Report(sSol.TotalWidth, wireC).TotalW() * 1e3
		a.stagUM += units.ToMicrons(sSol.StaggerLen)
		a.solved++
	}

	out := &Figure9Result{Nets: nets, Multiplier: mult}
	for _, name := range nodeNames {
		a := accs[name]
		row := Fig9Row{Tech: name, Infeasible: a.infeasible}
		if a.solved > 0 {
			n := float64(a.solved)
			row.AvgPowerPlainMW = a.plainMW / n
			row.AvgPowerStagMW = a.stagMW / n
			row.AvgStaggerUM = a.stagUM / n
			if a.plainMW > 0 {
				row.SavingsPct = 100 * (a.plainMW - a.stagMW) / a.plainMW
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render writes the study as an ASCII table.
func (r *Figure9Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 9 — crosstalk pessimism vs staggering at %.2g×τmin (%d nets/node, worst-case aggressors)\n",
		r.Multiplier, r.Nets)
	fmt.Fprintf(w, "%-8s %14s %14s %9s %14s %6s\n",
		"tech", "plain mW", "staggered mW", "saved %", "staggered µm", "infeas")
	fmt.Fprintln(w, strings.Repeat("-", 72))
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s %14.3f %14.3f %9.2f %14.1f %6d\n",
			row.Tech, row.AvgPowerPlainMW, row.AvgPowerStagMW, row.SavingsPct, row.AvgStaggerUM, row.Infeasible)
	}
}

// WriteCSV writes the study in machine-readable form.
func (r *Figure9Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "tech,avg_power_plain_mw,avg_power_staggered_mw,savings_pct,avg_staggered_um,infeasible"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%s,%g,%g,%g,%g,%d\n",
			row.Tech, row.AvgPowerPlainMW, row.AvgPowerStagMW, row.SavingsPct, row.AvgStaggerUM, row.Infeasible); err != nil {
			return err
		}
	}
	return nil
}

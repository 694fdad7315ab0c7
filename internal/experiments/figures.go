package experiments

import (
	"fmt"
	"io"
	"sort"
)

// SweepPoint is one x-value of a figure together with its measurement.
type SweepPoint struct {
	X float64
	M Measurement
}

// Figure is a regenerated paper figure: a parameter sweep with one
// measurement per swept value.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	// Metrics names the measurement columns this figure reports.
	Metrics []string
	Points  []SweepPoint
}

// FigureFunc runs a figure's sweep from base parameters.
type FigureFunc func(base Params) (Figure, error)

// Figures maps figure IDs ("9" .. "13") to their runners, in paper order.
func Figures() map[string]FigureFunc {
	return map[string]FigureFunc{
		"9":  Fig9,
		"10": Fig10,
		"11": Fig11,
		"12": Fig12,
		"13": Fig13,
	}
}

// FigureIDs returns the known figure IDs in paper order.
func FigureIDs() []string {
	ids := make([]string, 0, len(Figures()))
	for id := range Figures() {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		return len(ids[i]) < len(ids[j]) || (len(ids[i]) == len(ids[j]) && ids[i] < ids[j])
	})
	return ids
}

func sweep(base Params, id, title, xlabel string, metricNames []string, xs []float64, apply func(*Params, float64)) (Figure, error) {
	f := Figure{ID: id, Title: title, XLabel: xlabel, Metrics: metricNames}
	for _, x := range xs {
		p := base
		apply(&p, x)
		m, err := Run(p)
		if err != nil {
			return Figure{}, fmt.Errorf("experiments: figure %s at %s=%v: %w", id, xlabel, x, err)
		}
		f.Points = append(f.Points, SweepPoint{X: x, M: m})
	}
	return f, nil
}

// Fig9 regenerates Figure 9: effects of query window size on range query KL
// divergence (PF vs SM), window sizes 1% to 5%.
func Fig9(base Params) (Figure, error) {
	return sweep(base, "9", "Effects of query window size", "window%",
		[]string{"PF_KL", "SM_KL"},
		[]float64{1, 2, 3, 4, 5},
		func(p *Params, x float64) { p.WindowPct = x })
}

// Fig10 regenerates Figure 10: effects of k on kNN average hit rate
// (PF vs SM), k from 2 to 9.
func Fig10(base Params) (Figure, error) {
	return sweep(base, "10", "Effects of k", "k",
		[]string{"PF_hit", "SM_hit"},
		[]float64{2, 3, 4, 5, 6, 7, 8, 9},
		func(p *Params, x float64) { p.K = int(x) })
}

// Fig11 regenerates Figure 11: impact of the number of particles on
// (a) KL divergence, (b) kNN hit rate, and (c) top-k success rate,
// Ns from 2 to 512.
func Fig11(base Params) (Figure, error) {
	return sweep(base, "11", "Impact of the number of particles", "particles",
		[]string{"PF_KL", "SM_KL", "PF_hit", "SM_hit", "top1", "top2"},
		[]float64{2, 4, 8, 16, 32, 64, 128, 256, 512},
		func(p *Params, x float64) { p.Particles = int(x) })
}

// Fig12 regenerates Figure 12: impact of the number of moving objects,
// 200 to 1000.
func Fig12(base Params) (Figure, error) {
	return sweep(base, "12", "Impact of the number of moving objects", "objects",
		[]string{"PF_KL", "SM_KL", "PF_hit", "SM_hit", "top1", "top2"},
		[]float64{200, 400, 600, 800, 1000},
		func(p *Params, x float64) { p.Objects = int(x) })
}

// Fig13 regenerates Figure 13: impact of the activation range, 0.5 m to
// 2.5 m.
func Fig13(base Params) (Figure, error) {
	return sweep(base, "13", "Impact of activation range", "range_m",
		[]string{"PF_KL", "SM_KL", "PF_hit", "SM_hit", "top1", "top2"},
		[]float64{0.5, 1.0, 1.5, 2.0, 2.5},
		func(p *Params, x float64) { p.ActivationRange = x })
}

// value extracts a named metric from a measurement.
func (m Measurement) value(name string) float64 {
	switch name {
	case "PF_KL":
		return m.PFKL
	case "SM_KL":
		return m.SMKL
	case "PF_hit":
		return m.PFHit
	case "SM_hit":
		return m.SMHit
	case "top1":
		return m.Top1
	case "top2":
		return m.Top2
	default:
		return 0
	}
}

// WriteCSV renders the figure as CSV for external plotting tools.
func (f Figure) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s", f.XLabel); err != nil {
		return err
	}
	for _, m := range f.Metrics {
		if _, err := fmt.Fprintf(w, ",%s", m); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, pt := range f.Points {
		if _, err := fmt.Fprintf(w, "%g", pt.X); err != nil {
			return err
		}
		for _, m := range f.Metrics {
			if _, err := fmt.Fprintf(w, ",%.6f", pt.M.value(m)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// Write renders the figure as an aligned text table.
func (f Figure) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# Figure %s: %s\n", f.ID, f.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-12s", f.XLabel); err != nil {
		return err
	}
	for _, m := range f.Metrics {
		if _, err := fmt.Fprintf(w, " %10s", m); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, pt := range f.Points {
		if _, err := fmt.Fprintf(w, "%-12g", pt.X); err != nil {
			return err
		}
		for _, m := range f.Metrics {
			if _, err := fmt.Fprintf(w, " %10.4f", pt.M.value(m)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

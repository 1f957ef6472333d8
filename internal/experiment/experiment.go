// Package experiment defines the benchmark harness that regenerates every
// figure and quantitative claim of the paper (see DESIGN.md §4 for the
// experiment index E1–E12). Each experiment produces an Artifact holding
// text tables, data series, and shape-check notes; cmd/experiments renders
// them, and internal/bench registers one benchmark case per experiment.
package experiment

import (
	"context"
	"fmt"
	"sort"

	"noisypull/internal/report"
)

// Scale selects the size of an experiment run.
type Scale int

const (
	// ScaleQuick uses reduced grids and trial counts, sized so the whole
	// suite completes in minutes. Used by benchmarks and smoke runs.
	ScaleQuick Scale = iota
	// ScaleFull uses the grids recorded in EXPERIMENTS.md.
	ScaleFull
)

func (s Scale) String() string {
	switch s {
	case ScaleQuick:
		return "quick"
	case ScaleFull:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// Options configures an experiment run.
type Options struct {
	// Context, if non-nil, cancels the run cooperatively: no further trials
	// are launched after cancellation, in-flight simulations stop within one
	// round, and the experiment returns the context's error. Nil means
	// context.Background() (run to completion). cmd/experiments wires this
	// to SIGINT/SIGTERM so a Ctrl-C exits cleanly mid-grid.
	Context context.Context
	// Scale selects the parameter grids.
	Scale Scale
	// Trials is the number of independent repetitions per grid point;
	// 0 means the experiment's default for the scale.
	Trials int
	// Seed is the base seed; trial t at grid point g runs with a seed
	// derived from (Seed, g, t).
	Seed uint64
	// Parallel is the number of concurrent trials; 0 means GOMAXPROCS.
	// When trials run concurrently each simulation uses a single worker,
	// so total CPU use stays bounded.
	Parallel int
	// Progress, if non-nil, receives one line per completed grid point.
	Progress func(format string, args ...any)
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o Options) trialsOr(def int) int {
	if o.Trials > 0 {
		return o.Trials
	}
	return def
}

// Artifact is the output of one experiment: the regenerated figure/table
// plus machine-readable series and human-readable shape notes.
type Artifact struct {
	// ID is the experiment id (e.g. "E2").
	ID string
	// Title is a one-line description.
	Title string
	// PaperRef names the paper artifact this regenerates.
	PaperRef string
	// Tables holds the regenerated tables.
	Tables []*report.Table
	// Series holds the regenerated figure data.
	Series []report.Series
	// Notes records measured-shape findings (fit slopes, ratios, verdicts).
	Notes []string
}

// Notef appends a formatted note.
func (a *Artifact) Notef(format string, args ...any) {
	a.Notes = append(a.Notes, fmt.Sprintf(format, args...))
}

// Experiment is one registered reproduction experiment.
type Experiment struct {
	// ID is the experiment identifier used on the command line ("E1"…).
	ID string
	// Title is a one-line description.
	Title string
	// PaperRef names the figure/theorem being reproduced.
	PaperRef string
	// Run executes the experiment.
	Run func(opts Options) (*Artifact, error)
}

// registry is populated by the experiment files' init-free registration in
// All; keeping it a function avoids mutable package state.
func registryList() []Experiment {
	return []Experiment{
		e1FCurve(),
		e2LogTime(),
		e3SpeedupH(),
		e4NoiseSweep(),
		e5BiasSweep(),
		e6Tightness(),
		e7SelfStab(),
		e8Overhead(),
		e9Plurality(),
		e10Reduction(),
		e11Baselines(),
		e12Separation(),
		e13Theory(),
		e14Alternating(),
		e16Calibration(),
		e17Async(),
		e18Topology(),
		e19Memory(),
		e20Crossover(),
		e21Faults(),
	}
}

// All returns every registered experiment in index order.
func All() []Experiment {
	return registryList()
}

// ByID returns the experiment with the given id (case-sensitive, e.g.
// "E7").
func ByID(id string) (Experiment, bool) {
	for _, e := range registryList() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the sorted experiment ids.
func IDs() []string {
	es := registryList()
	ids := make([]string, len(es))
	for i, e := range es {
		ids[i] = e.ID
	}
	sort.Slice(ids, func(i, j int) bool {
		// Numeric-aware: E2 before E10.
		return idOrder(ids[i]) < idOrder(ids[j])
	})
	return ids
}

func idOrder(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "E%d", &n); err != nil {
		return 1 << 30
	}
	return n
}

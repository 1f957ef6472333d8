// Command noisypull runs a single simulation of the noisy PULL(h) model
// from command-line flags and reports the outcome. The flags fill a simd
// job spec (service.JobSpec), so protocols, channels and corruption modes
// are named and checked exactly as in a job submitted over HTTP.
//
// Examples:
//
//	# One informed agent among 1000, everyone senses everyone, 20% noise.
//	noisypull -n 1000 -samples 1000 -s1 1 -delta 0.2
//
//	# Self-stabilizing protocol recovering from a corrupted start.
//	noisypull -n 500 -samples 32 -s1 1 -delta 0.1 -protocol ssf -corrupt wrong
//
//	# Asymmetric channel, automatically reduced via Theorem 8.
//	noisypull -n 500 -samples 64 -s1 1 -p01 0.1 -p10 0.25
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"noisypull"
	"noisypull/internal/buildinfo"
	"noisypull/internal/report"
	"noisypull/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "noisypull:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("noisypull", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		n         = fs.Int("n", 1000, "population size")
		h         = fs.Int("samples", 32, "samples per agent per round (the paper's h)")
		s1        = fs.Int("s1", 1, "sources preferring opinion 1")
		s0        = fs.Int("s0", 0, "sources preferring opinion 0")
		delta     = fs.Float64("delta", 0.2, "uniform noise level (ignored if -p01/-p10 set)")
		p01       = fs.Float64("p01", -1, "asymmetric channel: P(0 observed as 1)")
		p10       = fs.Float64("p10", -1, "asymmetric channel: P(1 observed as 0)")
		protoName = fs.String("protocol", "sf", "protocol: sf, ssf, voter, majority, trustbit")
		seed      = fs.Uint64("seed", 1, "random seed (equal seeds reproduce runs exactly)")
		corrupt   = fs.String("corrupt", "none", "adversarial initialization: none, wrong, random")
		maxRounds = fs.Int("max-rounds", 0, "round cap for non-terminating protocols (0 = default)")
		window    = fs.Int("window", 0, "stability window in rounds (0 = protocol default)")
		c1        = fs.Float64("c1", 0, "protocol constant c1 override (0 = calibrated default)")
		history   = fs.Bool("history", false, "plot the per-round fraction of correct opinions")
		version   = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String("noisypull"))
		return nil
	}

	spec := service.JobSpec{
		N: *n, H: *h, Sources1: *s1, Sources0: *s0,
		Delta:           *delta,
		Protocol:        *protoName,
		C1:              *c1,
		MaxRounds:       *maxRounds,
		StabilityWindow: *window,
		Corruption:      *corrupt,
	}
	if *p01 >= 0 {
		spec.P01 = p01
	}
	if *p10 >= 0 {
		spec.P10 = p10
	}
	cfg, err := spec.Build()
	if err != nil {
		return err
	}
	cfg.Seed = *seed
	cfg.TrackHistory = *history

	res, err := noisypull.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "protocol:          %s\n", *protoName)
	fmt.Fprintf(out, "population:        n=%d  h=%d  sources=(%d,%d)\n", *n, *h, *s1, *s0)
	fmt.Fprintf(out, "correct opinion:   %d\n", res.CorrectOpinion)
	fmt.Fprintf(out, "rounds executed:   %d\n", res.Rounds)
	fmt.Fprintf(out, "converged:         %v\n", res.Converged)
	if res.FirstAllCorrect > 0 {
		fmt.Fprintf(out, "all correct since: round %d\n", res.FirstAllCorrect)
	}
	fmt.Fprintf(out, "final correct:     %d / %d agents\n", res.FinalCorrect, *n)

	if *history && len(res.History) > 0 {
		xs := make([]float64, len(res.History))
		ys := make([]float64, len(res.History))
		for i, c := range res.History {
			xs[i] = float64(i + 1)
			ys[i] = float64(c) / float64(*n)
		}
		plot := &report.Plot{
			Title:  "fraction of agents holding the correct opinion",
			XLabel: "round",
			YLabel: "fraction correct",
		}
		plot.Add(report.NewSeries("correct fraction", xs, ys))
		if _, err := plot.WriteTo(out); err != nil {
			return err
		}
	}
	return nil
}

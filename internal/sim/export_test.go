package sim

// Test-only exports for the external sim_test package.

// ProbeOf returns the test kernel r steps; r must run a *Probe.
func ProbeOf(r *Runner) *ProbePop { return r.pop.(*ProbePop) }

// AsyncEngine returns the Runner whose population an AsyncRunner activates.
func AsyncEngine(r *AsyncRunner) *Runner { return r.eng }

// BuildsRoundGuide reports whether r's rounds build the guide table of the
// shared binary sampler.
func BuildsRoundGuide(r *Runner) bool { return r.guide }

// Reseal recomputes the trailing checksum of a snapshot a test has edited,
// so Restore reads past the checksum to the edited field.
func Reseal(snap []byte) {
	body := snap[:len(snap)-8]
	var w SnapWriter
	w.U64(fnv1a(0, body))
	copy(snap[len(body):], w.Bytes())
}

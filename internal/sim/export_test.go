package sim

// Test-only exports for the external sim_test package.

// CopySourceProtocol is the convergent test protocol of sim_test.go.
type CopySourceProtocol = copySourceProtocol

// AsyncEngine returns the Runner whose population an AsyncRunner activates.
func AsyncEngine(r *AsyncRunner) *Runner { return r.eng }

// BuildsRoundGuide reports whether r's rounds build the guide table of the
// shared binary sampler.
func BuildsRoundGuide(r *Runner) bool { return r.guide }

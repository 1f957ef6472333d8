package experiment

import (
	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/sim"
)

// ssfTrialConfig assembles the sim.Config of an SSF grid point: the
// stability window spans two full update cycles (so "converged" means
// consensus survives across memory flushes) and the round cap is a small
// multiple of Theorem 5's convergence horizon.
func ssfTrialConfig(ssf *protocol.SSF, n, h, s1, s0 int, nm *noise.Matrix, corrupt sim.CorruptionMode) (sim.Config, error) {
	cfg := sim.Config{
		N: n, H: h, Sources1: s1, Sources0: s0,
		Noise:      nm,
		Protocol:   ssf,
		Corruption: corrupt,
	}
	env := cfg.Env()
	m, err := ssf.UpdateQuota(env)
	if err != nil {
		return sim.Config{}, err
	}
	updateRounds := (m + h - 1) / h
	cfg.StabilityWindow = 2 * updateRounds
	conv, err := ssf.ConvergenceRounds(env)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.MaxRounds = 6*conv + cfg.StabilityWindow
	return cfg, nil
}

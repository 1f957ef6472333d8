package experiment

import (
	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/sim"
)

// ssfTrialConfig assembles the sim.Config of an SSF grid point, with the
// stability window and round cap of SSF.RunBounds.
func ssfTrialConfig(ssf *protocol.SSF, n, h, s1, s0 int, nm *noise.Matrix, corrupt sim.CorruptionMode) (sim.Config, error) {
	cfg := sim.Config{
		N: n, H: h, Sources1: s1, Sources0: s0,
		Noise:      nm,
		Protocol:   ssf,
		Corruption: corrupt,
	}
	var err error
	if cfg.StabilityWindow, cfg.MaxRounds, err = ssf.RunBounds(cfg.Env()); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

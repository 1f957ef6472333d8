// Snapshot/Restore determinism tests. They live in the external test package
// so they can exercise the real protocols from internal/protocol (which
// imports sim).
package sim_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"noisypull/internal/faults"
	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/sim"
)

// snapCase is one backend/protocol/fault combination the determinism test
// covers. snapRound is the round the mid-run snapshot is taken at; it must be
// well before the run's natural end so the resumed portion is non-trivial.
type snapCase struct {
	name      string
	cfg       func(t *testing.T) sim.Config
	snapRound int
}

func snapCases() []snapCase {
	return []snapCase{
		{
			// SF on the exact backend under a hostile schedule: mid-run
			// corruption, a crash window, and a noise drift all have live
			// runtime state (crash bookkeeping, drift interpolation, fault
			// telemetry) that the snapshot must carry.
			name: "sf exact faults",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{
					N: 400, H: 16, Sources1: 1,
					Noise:    uniformNoise(t, 2, 0.15),
					Protocol: protocol.NewSF(),
					Seed:     7,
					Backend:  sim.BackendExact,
					Workers:  2,
					Faults: &faults.Schedule{Events: []faults.Event{
						{Kind: faults.KindCorrupt, Round: 5, Fraction: 0.3, Corruption: faults.CorruptRandom},
						{Kind: faults.KindCrash, Round: 8, Fraction: 0.2, Duration: 6},
						{Kind: faults.KindNoiseDrift, Round: 10, Delta: 0.25, DriftRounds: 8},
					}},
				}
			},
			snapRound: 9, // inside the crash window, before the drift starts
		},
		{
			name: "ssf aggregate",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{
					N: 300, H: 64, Sources1: 2,
					Noise:           uniformNoise(t, 4, 0.1),
					Protocol:        protocol.NewSSF(),
					Seed:            3,
					Backend:         sim.BackendAggregate,
					MaxRounds:       400,
					StabilityWindow: 8,
					Workers:         2,
				}
			},
			snapRound: 6,
		},
		{
			name: "voter counts noise swap",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{
					N: 5000, H: 5, Sources1: 40,
					Noise:           uniformNoise(t, 2, 0.2),
					Protocol:        protocol.Voter{},
					Seed:            11,
					Backend:         sim.BackendCounts,
					MaxRounds:       200,
					StabilityWindow: 3,
					Faults: &faults.Schedule{Events: []faults.Event{
						{Kind: faults.KindNoiseSwap, Round: 12, Matrix: mustUniform(0.05)},
					}},
				}
			},
			snapRound: 15, // after the swap: the dirty matrix must be carried
		},
		{
			name: "majority exact corruption init",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{
					N: 200, H: 7, Sources1: 10,
					Noise:           uniformNoise(t, 2, 0.1),
					Protocol:        protocol.MajorityRule{},
					Seed:            5,
					Backend:         sim.BackendExact,
					MaxRounds:       300,
					StabilityWindow: 4,
					Corruption:      sim.CorruptWrongConsensus,
					Workers:         1,
				}
			},
			snapRound: 3,
		},
		{
			name: "trustbit aggregate",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{
					N: 500, H: 40, Sources1: 3,
					Noise:           uniformNoise(t, 4, 0.05),
					Protocol:        protocol.TrustBit{},
					Seed:            2,
					Backend:         sim.BackendAggregate,
					MaxRounds:       200,
					StabilityWindow: 5,
					Workers:         2,
				}
			},
			snapRound: 2,
		},
	}
}

func mustUniform(delta float64) *noise.Matrix {
	m, err := noise.Uniform(2, delta)
	if err != nil {
		panic(err)
	}
	return m
}

// run executes a fresh runner over cfg and returns the result plus a
// final-state snapshot (the bit-identity witness).
func runWithFinalSnap(t *testing.T, cfg sim.Config) (*sim.Result, []byte) {
	t.Helper()
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	return res, snap
}

func sameResult(t *testing.T, want, got *sim.Result, label string) {
	t.Helper()
	if want.Rounds != got.Rounds || want.Converged != got.Converged ||
		want.FirstAllCorrect != got.FirstAllCorrect ||
		want.FinalCorrect != got.FinalCorrect ||
		want.CorrectOpinion != got.CorrectOpinion {
		t.Fatalf("%s: result diverged:\nwant %+v\ngot  %+v", label, want, got)
	}
	if !reflect.DeepEqual(want.Faults, got.Faults) {
		t.Fatalf("%s: fault telemetry diverged:\nwant %+v\ngot  %+v", label, want.Faults, got.Faults)
	}
}

// TestSnapshotResumeDeterminism is the core resume guarantee: a run
// interrupted at round k and resumed from its snapshot in a fresh runner
// finishes with exactly the same result and exactly the same final engine
// state as the uninterrupted run — across backends, protocols, and live
// fault schedules.
func TestSnapshotResumeDeterminism(t *testing.T) {
	for _, tc := range snapCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t)
			control, controlFinal := runWithFinalSnap(t, cfg)
			if control.Rounds <= tc.snapRound {
				t.Fatalf("control finished at round %d, before the snapshot round %d", control.Rounds, tc.snapRound)
			}

			// Take the mid-run snapshot from an OnRound hook.
			r, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			var snap []byte
			r.SetOnRound(func(round, correct int) {
				if round == tc.snapRound {
					snap = r.Snapshot()
				}
			})
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if snap == nil {
				t.Fatal("snapshot hook never fired")
			}

			// Resume in a fresh runner.
			r2, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r2.Close()
			if err := r2.Restore(snap); err != nil {
				t.Fatal(err)
			}
			resumed, err := r2.Run()
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, control, resumed, "resumed result")
			resumedFinal := r2.Snapshot()
			if !bytes.Equal(controlFinal, resumedFinal) {
				t.Fatal("final engine state differs between uninterrupted and resumed run")
			}

			// Resume also works on a leased (Reset) runner, the service's
			// steady-state path.
			r2.Reset(cfg.Seed)
			if err := r2.Restore(snap); err != nil {
				t.Fatal(err)
			}
			again, err := r2.Run()
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, control, again, "reset+restored result")
		})
	}
}

// TestSnapshotRoundZero: a snapshot taken before any round runs restores to
// the exact initial state.
func TestSnapshotRoundZero(t *testing.T) {
	cfg := snapCases()[0].cfg(t)
	control, _ := runWithFinalSnap(t, cfg)

	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	snap := r.Snapshot()
	r2, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if err := r2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	res, err := r2.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, control, res, "round-0 restore")
}

// TestSnapshotCheckpointHook: SetCheckpoint fires at the configured cadence
// and its snapshots resume correctly.
func TestSnapshotCheckpointHook(t *testing.T) {
	cfg := snapCases()[1].cfg(t)
	control, _ := runWithFinalSnap(t, cfg)

	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var rounds []int
	var last []byte
	r.SetCheckpoint(4, func(round int, snapshot []byte) {
		rounds = append(rounds, round)
		last = append(last[:0], snapshot...)
	})
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rounds) == 0 {
		t.Fatal("checkpoint hook never fired")
	}
	for i, rd := range rounds {
		if rd%4 != 0 {
			t.Fatalf("checkpoint %d fired at round %d, not a multiple of 4", i, rd)
		}
	}

	r2, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if err := r2.Restore(last); err != nil {
		t.Fatal(err)
	}
	res, err := r2.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, control, res, "last-checkpoint restore")
}

// TestSnapshotFiniteLastRound: a checkpoint taken at a finite protocol's
// last round restores into a finished run with the uninterrupted result,
// instead of stepping the protocol past its schedule to MaxRounds.
func TestSnapshotFiniteLastRound(t *testing.T) {
	cfg := lastRoundConfig(t)
	restoreStoppedRun(t, cfg, finiteRounds(t, cfg))
}

// TestSnapshotConvergedRound: a checkpoint taken at the round an infinite
// protocol fills its stability window restores into a finished run with the
// uninterrupted result, instead of stepping past the convergence round.
func TestSnapshotConvergedRound(t *testing.T) {
	cfg := sim.Config{
		N: 200, H: 7, Sources1: 10,
		Noise:           uniformNoise(t, 2, 0.1),
		Protocol:        protocol.MajorityRule{},
		Seed:            5,
		MaxRounds:       300,
		StabilityWindow: 4,
		Workers:         1,
	}
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	control, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !control.Converged || control.Rounds < cfg.StabilityWindow {
		t.Fatalf("control: converged %v at round %d, want convergence after a full window", control.Converged, control.Rounds)
	}
	restoreStoppedRun(t, cfg, control.Rounds)
}

// TestRestoreRejectsRoundPastSchedule: a finite protocol's snapshot whose
// completedRound is forged one past the schedule's last round, though still
// inside MaxRounds, fails Restore with an error naming the field.
func TestRestoreRejectsRoundPastSchedule(t *testing.T) {
	cfg := lastRoundConfig(t)
	last := finiteRounds(t, cfg)
	if last+1 > cfg.MaxRounds {
		t.Fatalf("schedule of %d rounds leaves no room below MaxRounds %d", last, cfg.MaxRounds)
	}
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var snap []byte
	r.SetCheckpoint(last, func(_ int, data []byte) { snap = data })
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(snap[forgeCounters:], uint64(last+1))
	sim.Reseal(snap)

	r2, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	want := fmt.Sprintf("completedRound %d", last+1)
	if err := r2.Restore(snap); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want one naming %q", err, want)
	}
}

// lastRoundConfig is an SF run whose MaxRounds lies well past its schedule.
func lastRoundConfig(t *testing.T) sim.Config {
	return sim.Config{
		N: 200, H: 16, Sources1: 1,
		Noise:     uniformNoise(t, 2, 0.1),
		Protocol:  protocol.NewSF(),
		Seed:      3,
		MaxRounds: 5000,
		Workers:   1,
	}
}

// finiteRounds returns the length of cfg's finite schedule.
func finiteRounds(t *testing.T, cfg sim.Config) int {
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	return cfg.Protocol.(sim.Finite).Rounds(r.Env())
}

// restoreStoppedRun runs cfg with a checkpoint every `round` rounds, which
// must land on the round the run stops at, restores that checkpoint into a
// fresh runner, and requires the restored run to report the uninterrupted
// result.
func restoreStoppedRun(t *testing.T, cfg sim.Config, round int) {
	t.Helper()
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var snap []byte
	snapAt := 0
	r.SetCheckpoint(round, func(at int, data []byte) { snap, snapAt = data, at })
	control, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if snapAt != control.Rounds {
		t.Fatalf("last checkpoint at round %d, run stopped at round %d", snapAt, control.Rounds)
	}

	r2, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if err := r2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	res, err := r2.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, control, res, "stopping-round restore")
}

// TestSnapshotRestoreRejections: corrupted, truncated, or mismatched
// snapshots fail loudly instead of silently diverging.
func TestSnapshotRestoreRejections(t *testing.T) {
	cfg := snapCases()[3].cfg(t) // majority exact, no faults
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	snap := r.Snapshot()

	fresh := func(mut func(c *sim.Config)) *sim.Runner {
		c := cfg
		if mut != nil {
			mut(&c)
		}
		r2, err := sim.New(c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r2.Close)
		return r2
	}

	t.Run("bit flip fails checksum", func(t *testing.T) {
		bad := append([]byte(nil), snap...)
		bad[len(bad)/2] ^= 0x40
		if err := fresh(nil).Restore(bad); err == nil {
			t.Fatal("corrupted snapshot accepted")
		}
	})
	t.Run("truncation fails", func(t *testing.T) {
		for _, n := range []int{0, 1, 5, len(snap) / 2, len(snap) - 1} {
			if err := fresh(nil).Restore(snap[:n]); err == nil {
				t.Fatalf("snapshot truncated to %d bytes accepted", n)
			}
		}
	})
	t.Run("different seed fails fingerprint", func(t *testing.T) {
		err := fresh(func(c *sim.Config) { c.Seed++ }).Restore(snap)
		if err == nil {
			t.Fatal("snapshot restored under a different seed")
		}
	})
	t.Run("different shape fails fingerprint", func(t *testing.T) {
		err := fresh(func(c *sim.Config) { c.H++ }).Restore(snap)
		if err == nil {
			t.Fatal("snapshot restored under a different h")
		}
	})
	t.Run("different protocol fails fingerprint", func(t *testing.T) {
		err := fresh(func(c *sim.Config) { c.Protocol = protocol.Voter{} }).Restore(snap)
		if err == nil {
			t.Fatal("snapshot restored under a different protocol")
		}
	})
	t.Run("different round budget is fine", func(t *testing.T) {
		r2 := fresh(func(c *sim.Config) { c.MaxRounds = cfg.MaxRounds * 2 })
		if err := r2.Restore(snap); err != nil {
			t.Fatalf("round budget should not pin a snapshot: %v", err)
		}
	})
	t.Run("garbage fails", func(t *testing.T) {
		if err := fresh(nil).Restore([]byte("not a snapshot, definitely")); err == nil {
			t.Fatal("garbage accepted")
		}
	})
}

// forgeConfig is a faulted majority run whose round-6 checkpoint carries
// crash state: half the agents crash at round 3 until round 13. The window
// of 6 keeps the snapshot run from converging before round 6; the
// restoring runner's budget of 40 rounds is what Restore checks
// completedRound against.
func forgeConfig(t testing.TB, maxRounds int) sim.Config {
	return sim.Config{
		N: 64, H: 5, Sources1: 4,
		Noise:           uniformNoise(t, 2, 0.2),
		Protocol:        protocol.MajorityRule{},
		Seed:            9,
		MaxRounds:       maxRounds,
		StabilityWindow: 6,
		Workers:         1,
		Faults: &faults.Schedule{Events: []faults.Event{
			{Kind: faults.KindCorrupt, Round: 2, Fraction: 0.3, Corruption: faults.CorruptRandom},
			{Kind: faults.KindCrash, Round: 3, Fraction: 0.5, Duration: 10},
			{Kind: faults.KindChurn, Round: 4, Fraction: 0.2},
		}},
	}
}

// forgeSnapshot runs forgeConfig for 6 rounds and returns its snapshot.
func forgeSnapshot(t testing.TB) []byte {
	r, err := sim.New(forgeConfig(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	return snap
}

// Byte offsets into forgeSnapshot: the four u64 round counters follow the
// magic, version and fingerprint; the crash arrays (crashUntil, frozen per
// agent) end right before the drift state (1 + 4×8 bytes), the dirty-noise
// flag and the checksum.
const forgeCounters = 4 + 2 + 8

func forgeCrashAt(snap []byte, n, agent int) int {
	return len(snap) - 8 - 1 - 33 - 16*(n-agent)
}

// forgeCrashed returns the offset of the first agent whose crashUntil reads
// 13 (crashed at round 3 for 10 rounds), or −1. Its frozen symbol is what
// the resumed rounds display.
func forgeCrashed(snap []byte, n int) int {
	for i := 0; i < n; i++ {
		if at := forgeCrashAt(snap, n, i); binary.LittleEndian.Uint64(snap[at:]) == 13 {
			return at
		}
	}
	return -1
}

// TestRestoreRejectsForgedFields: a snapshot with one header counter or one
// agent's crash state out of its reachable range (its checksum recomputed,
// so only that field is wrong) fails Restore with an error naming the
// field; unforged, the same snapshot restores and runs.
func TestRestoreRejectsForgedFields(t *testing.T) {
	cfg := forgeConfig(t, 40)
	snap := forgeSnapshot(t)
	if got := binary.LittleEndian.Uint64(snap[forgeCounters:]); got != 6 {
		t.Fatalf("completedRound reads %d at its offset, want 6", got)
	}
	for i := 0; i < cfg.N; i++ {
		if until := binary.LittleEndian.Uint64(snap[forgeCrashAt(snap, cfg.N, i):]); until != 0 && until != 13 {
			t.Fatalf("agent %d crashUntil reads %d at its offset, want 0 or 13", i, until)
		}
	}
	agent := forgeCrashed(snap, cfg.N)
	if agent < 0 {
		t.Fatal("no agent crashed before the snapshot")
	}

	restore := func(data []byte) (*sim.Runner, error) {
		r, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r, r.Restore(data)
	}
	r, err := restore(snap)
	if err != nil {
		t.Fatalf("unforged snapshot: %v", err)
	}
	if res, err := r.Run(); err != nil || res.Rounds > cfg.MaxRounds {
		t.Fatalf("unforged snapshot: result %+v, err %v", res, err)
	}

	for _, tc := range []struct {
		name string
		at   int
		v    int64
		want string
	}{
		{"completedRound negative", forgeCounters, -100000, "completedRound -100000"},
		{"completedRound past MaxRounds", forgeCounters, 1 << 40, "completedRound 1099511627776"},
		{"streak negative", forgeCounters + 8, -1, "streak -1"},
		{"streak past completedRound", forgeCounters + 8, 7, "streak 7"},
		{"firstAllCorrect negative", forgeCounters + 16, -1, "firstAllCorrect -1"},
		{"firstAllCorrect past completedRound", forgeCounters + 16, 7, "firstAllCorrect 7"},
		{"lastCorrect negative", forgeCounters + 24, -1, "lastCorrect -1"},
		{"lastCorrect past N", forgeCounters + 24, 65, "lastCorrect 65"},
		{"crashUntil negative", agent, -1, "crashUntil -1"},
		{"frozen symbol past alphabet", agent + 8, 128, "frozen symbol 128"},
		{"frozen symbol negative", agent + 8, -1, "frozen symbol -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), snap...)
			binary.LittleEndian.PutUint64(bad[tc.at:], uint64(tc.v))
			sim.Reseal(bad)
			if _, err := restore(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// FuzzRestore overwrites 8 bytes of forgeSnapshot at a fuzzed offset and
// reseals the checksum. Restore must reject the result, or the restored run
// must end within MaxRounds without a panic.
func FuzzRestore(f *testing.F) {
	cfg := forgeConfig(f, 40)
	snap := forgeSnapshot(f)
	crashed := forgeCrashed(snap, cfg.N)
	for _, at := range []int{forgeCounters, forgeCounters + 8, forgeCounters + 16, forgeCounters + 24, crashed, crashed + 8} {
		f.Add(uint(at), uint64(1)<<40)
		f.Add(uint(at), ^uint64(0))
		f.Add(uint(at), uint64(128))
	}
	f.Fuzz(func(t *testing.T, at uint, v uint64) {
		data := append([]byte(nil), snap...)
		// Any offset whose 8 bytes end inside the body.
		binary.LittleEndian.PutUint64(data[at%uint(len(data)-15):], v)
		sim.Reseal(data)
		r, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.Restore(data) != nil {
			return
		}
		if res, err := r.Run(); err == nil && res.Rounds > cfg.MaxRounds {
			t.Fatalf("restored run reports %d rounds, MaxRounds is %d", res.Rounds, cfg.MaxRounds)
		}
	})
}

package sim

import (
	"errors"
	"fmt"
	"math"

	"noisypull/internal/faults"
	"noisypull/internal/noise"
)

// This file implements simulation checkpoint/resume: Runner.Snapshot captures
// the complete mutable state of a run at a round boundary — population state
// (per-agent or class counts), every RNG stream, the fault-schedule position,
// and the convergence bookkeeping — in a versioned deterministic binary
// encoding, and Runner.Restore rewinds an identically configured runner to
// that point so the continued run is bit-identical to an uninterrupted one.
//
// Encoding (all integers little-endian, fixed width):
//
//	magic "npss" | u16 version | u64 config fingerprint
//	u64 completedRound | u64 streak | u64 firstAllCorrect | u64 lastCorrect
//	u8 backend label (Config.Backend as the caller set it)
//	population section (per-agent: chunk count, 4×u64 state per chunk
//	stream, then the population's SnapshotRange payload; counts: 4×u64
//	stream state, K, counts)
//	faults section (presence flag, then cursor/stream/records/crash/drift
//	state and — when a swap or finished drift changed it — the noise matrix
//	in effect)
//	u64 FNV-1a checksum over everything before it
//
// Version policy: the version is bumped whenever the layout or any field
// semantics change; Restore rejects versions it does not know. A snapshot
// also embeds a fingerprint of the runner configuration (population shape,
// seed, protocol identity, backend label, noise entries), so restoring into
// a runner whose trajectory would diverge fails loudly instead of silently.

// snapshotVersion is the current encoding version.
const snapshotVersion = 1

// snapshotMagic prefixes every snapshot ("noisy pull simulation snapshot").
var snapshotMagic = [4]byte{'n', 'p', 's', 's'}

// Population section markers. A snapshot's marker must match the engine
// path of the restoring runner — Restore rejects a mismatch. Marker 1 named
// a population format this build no longer reads; do not reuse it.
const (
	snapPopCounts = 2
	snapPopVec    = 3
)

// SnapWriter appends fixed-width little-endian values to a buffer. It is the
// encoding half of VecPopulation's SnapshotRange/RestoreRange contract:
// a population writes only state that evolves during a run, not
// construction parameters (roles, derived protocol constants), because
// Restore targets a freshly built population.
type SnapWriter struct {
	buf []byte
}

// Bytes returns the accumulated encoding.
func (w *SnapWriter) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *SnapWriter) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a little-endian uint16.
func (w *SnapWriter) U16(v uint16) {
	w.buf = append(w.buf, byte(v), byte(v>>8))
}

// U64 appends a little-endian uint64.
func (w *SnapWriter) U64(v uint64) {
	w.buf = append(w.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 appends a little-endian int64 (two's complement).
func (w *SnapWriter) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as an int64.
func (w *SnapWriter) Int(v int) { w.I64(int64(v)) }

// Bool appends a bool as one byte.
func (w *SnapWriter) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 appends a float64 by its IEEE-754 bits.
func (w *SnapWriter) F64(v float64) { w.U64(math.Float64bits(v)) }

// SnapReader consumes values written by SnapWriter. Errors are sticky: the
// first short read poisons the reader, subsequent reads return zero values,
// and Err reports the failure — so decoding code can read a whole record and
// check once.
type SnapReader struct {
	data []byte
	off  int
	err  error
}

// NewSnapReader wraps data for reading.
func NewSnapReader(data []byte) *SnapReader { return &SnapReader{data: data} }

// Err returns the first decoding error, if any.
func (r *SnapReader) Err() error { return r.err }

// Remaining reports the number of unread bytes.
func (r *SnapReader) Remaining() int { return len(r.data) - r.off }

func (r *SnapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.data) {
		r.err = fmt.Errorf("sim: snapshot truncated at byte %d (want %d more)", r.off, n)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *SnapReader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *SnapReader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

// U64 reads a little-endian uint64.
func (r *SnapReader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// I64 reads a little-endian int64.
func (r *SnapReader) I64() int64 { return int64(r.U64()) }

// Int reads an int written with SnapWriter.Int.
func (r *SnapReader) Int() int { return int(r.I64()) }

// Bool reads a bool written with SnapWriter.Bool.
func (r *SnapReader) Bool() bool { return r.U8() != 0 }

// F64 reads a float64 written with SnapWriter.F64.
func (r *SnapReader) F64() float64 { return math.Float64frombits(r.U64()) }

// fnv1a folds data into an FNV-1a running hash.
func fnv1a(h uint64, data []byte) uint64 {
	if h == 0 {
		h = 0xcbf29ce484222325
	}
	for _, b := range data {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return h
}

// fingerprint hashes the parts of the configuration a snapshot's trajectory
// depends on: population shape, seed, protocol identity, and the exact noise
// (and artificial-noise) matrix entries. MaxRounds and the stability window
// are deliberately excluded — they only decide when a run stops, not where
// it goes — so a snapshot may be resumed under a different round budget.
//
// The backend label is hashed too, although the three per-agent labels run
// one engine: every checkpoint already written (and every pinned digest)
// hashes its label, so dropping it would change their bytes. Snapshot hashes
// the runner's label; Restore hashes the label the snapshot recorded, so a
// checkpoint taken under any per-agent label restores under any other.
func (r *Runner) fingerprint(label Backend) uint64 {
	c := &r.cfg
	var w SnapWriter
	w.Int(c.N)
	w.Int(c.H)
	w.Int(c.Sources1)
	w.Int(c.Sources0)
	w.U64(c.Seed)
	w.Int(int(label))
	w.Int(r.env.Alphabet)
	w.Int(int(c.Corruption))
	h := fnv1a(0, []byte(fmt.Sprintf("%T", c.Protocol)))
	h = fnv1a(h, w.Bytes())
	h = fnv1a(h, matrixBytes(c.Noise))
	h = fnv1a(h, matrixBytes(r.artificial))
	if c.Faults != nil {
		h = fnv1a(h, []byte(fmt.Sprintf("%+v", c.Faults.Events)))
	}
	if c.Topology != nil {
		h = fnv1a(h, []byte(fmt.Sprintf("topo:%d:%d", c.Topology.N(), c.Topology.MinDegree())))
	}
	return h
}

func matrixBytes(m *noise.Matrix) []byte {
	if m == nil {
		return []byte{0}
	}
	var w SnapWriter
	d := m.Alphabet()
	w.Int(d)
	for i := 0; i < d; i++ {
		for _, v := range m.Row(i) {
			w.F64(v)
		}
	}
	return w.Bytes()
}

// Snapshot encodes the runner's complete mutable state at the last completed
// round boundary. It is valid to call from a SetOnRound or SetCheckpoint hook
// (the engine is at a barrier there), between New/Reset and Run (capturing
// round 0), or after RunContext returned — including after cancellation,
// whose check happens at a round boundary. It must not be called from
// another goroutine while Run is executing rounds.
func (r *Runner) Snapshot() []byte {
	var w SnapWriter
	w.buf = append(w.buf, snapshotMagic[:]...)
	w.U16(snapshotVersion)
	w.U64(r.fingerprint(r.cfg.Backend))
	w.U64(uint64(r.completedRound))
	w.U64(uint64(r.streak))
	w.U64(uint64(r.firstAll))
	w.U64(uint64(r.lastCorrect))
	w.U8(uint8(r.cfg.Backend))

	if r.ce != nil {
		w.U8(snapPopCounts)
		for _, s := range r.ce.stream.State() {
			w.U64(s)
		}
		w.Int(len(r.ce.counts))
		for _, c := range r.ce.counts {
			w.Int(c)
		}
	} else {
		w.U8(snapPopVec)
		w.Int(r.numChunks)
		for c := range r.chunkStreams {
			for _, s := range r.chunkStreams[c].State() {
				w.U64(s)
			}
		}
		r.pop.SnapshotRange(&w, 0, r.cfg.N)
	}

	if r.fs == nil {
		w.Bool(false)
	} else {
		w.Bool(true)
		r.fs.snapshot(&w)
		// The noise matrix in effect survives across rounds only after a
		// swap or a finished drift; an in-progress drift recomputes it at the
		// top of every round. Record it whenever it differs from the
		// configured matrix.
		dirty := !noiseEqual(r.curNoise, r.cfg.Noise)
		w.Bool(dirty)
		if dirty {
			d := r.curNoise.Alphabet()
			w.Int(d)
			for i := 0; i < d; i++ {
				for _, v := range r.curNoise.Row(i) {
					w.F64(v)
				}
			}
		}
	}

	w.U64(fnv1a(0, w.Bytes()))
	return w.Bytes()
}

// Restore rewinds the runner to a previously captured snapshot. The runner
// must have been built (or Reset) with the same configuration and seed the
// snapshot was taken under — Restore verifies a configuration fingerprint
// and fails on mismatch — except that a runner under any per-agent backend
// label restores a snapshot taken under any other. After a successful
// Restore, RunContext continues from the snapshot's round and the completed
// run is bit-identical to one that was never interrupted. A failed Restore
// leaves the runner in an unspecified population state; Reset it before
// further use.
func (r *Runner) Restore(data []byte) error {
	if len(data) < len(snapshotMagic)+2+8 {
		return errors.New("sim: snapshot too short")
	}
	body, sum := data[:len(data)-8], NewSnapReader(data[len(data)-8:]).U64()
	if fnv1a(0, body) != sum {
		return errors.New("sim: snapshot checksum mismatch (corrupted or truncated)")
	}
	rd := NewSnapReader(body)
	var magic [4]byte
	copy(magic[:], rd.take(4))
	if magic != snapshotMagic {
		return errors.New("sim: not a simulation snapshot (bad magic)")
	}
	if v := rd.U16(); v != snapshotVersion {
		return fmt.Errorf("sim: snapshot version %d, this build reads version %d", v, snapshotVersion)
	}
	fp := rd.U64()
	completed := int(rd.U64())
	streak := int(rd.U64())
	firstAll := int(rd.U64())
	lastCorrect := int(rd.U64())
	label := Backend(rd.U8())
	switch label {
	case BackendAuto, BackendExact, BackendAggregate, BackendCounts:
	default:
		return fmt.Errorf("sim: snapshot records unknown backend label %d", int(label))
	}
	if (label == BackendCounts) != (r.ce != nil) {
		return fmt.Errorf("sim: snapshot backend %v, runner uses %v", label, r.cfg.Backend)
	}
	if fp != r.fingerprint(label) {
		return errors.New("sim: snapshot fingerprint mismatch: it was taken under a different configuration or seed")
	}
	// The checksum guards against accidents, not forgery: a counter outside
	// what a run can reach would make Run loop past its budget or a finite
	// schedule, or misreport its rounds.
	last := r.lastRound()
	switch {
	case completed < 0 || completed > last:
		return fmt.Errorf("sim: snapshot completedRound %d outside [0, %d], the run's last round", completed, last)
	case streak < 0 || streak > completed:
		return fmt.Errorf("sim: snapshot streak %d outside [0, completedRound %d]", streak, completed)
	case firstAll < 0 || firstAll > completed:
		return fmt.Errorf("sim: snapshot firstAllCorrect %d outside [0, completedRound %d]", firstAll, completed)
	case lastCorrect < 0 || lastCorrect > r.cfg.N:
		return fmt.Errorf("sim: snapshot lastCorrect %d outside [0, N %d]", lastCorrect, r.cfg.N)
	}

	switch marker := rd.U8(); marker {
	case snapPopCounts:
		if r.ce == nil {
			return errors.New("sim: counts snapshot, but runner has a per-agent population")
		}
		var st [4]uint64
		for i := range st {
			st[i] = rd.U64()
		}
		if err := r.ce.stream.SetState(st); err != nil {
			return err
		}
		k := rd.Int()
		if k != len(r.ce.counts) {
			return fmt.Errorf("sim: snapshot has %d state classes, runner has %d", k, len(r.ce.counts))
		}
		total := 0
		for s := 0; s < k; s++ {
			c := rd.Int()
			if c < 0 {
				return fmt.Errorf("sim: snapshot class %d has negative count %d", s, c)
			}
			r.ce.counts[s] = c
			total += c
		}
		if rd.Err() == nil && total != r.cfg.N {
			return fmt.Errorf("sim: snapshot counts sum to %d, population is %d", total, r.cfg.N)
		}
	case snapPopVec:
		if r.pop == nil {
			return errors.New("sim: per-agent snapshot, but runner uses the counts backend")
		}
		k := rd.Int()
		if k != r.numChunks {
			return fmt.Errorf("sim: snapshot has %d chunk streams, runner has %d", k, r.numChunks)
		}
		for c := 0; c < k && rd.Err() == nil; c++ {
			var st [4]uint64
			for j := range st {
				st[j] = rd.U64()
			}
			if err := r.chunkStreams[c].SetState(st); err != nil {
				return err
			}
		}
		if err := r.pop.RestoreRange(rd, 0, r.cfg.N); err != nil {
			return err
		}
	default:
		return fmt.Errorf("sim: unknown population marker %d", marker)
	}

	if rd.Bool() {
		if r.fs == nil {
			return errors.New("sim: snapshot carries fault state, but runner has no fault schedule")
		}
		if err := r.fs.restore(rd, r.cfg.N, r.env.Alphabet); err != nil {
			return err
		}
		if rd.Bool() { // noise matrix dirty
			d := rd.Int()
			if rd.Err() != nil {
				return rd.Err()
			}
			if d != r.env.Alphabet {
				return fmt.Errorf("sim: snapshot noise alphabet %d, runner uses %d", d, r.env.Alphabet)
			}
			rows := make([][]float64, d)
			for i := range rows {
				rows[i] = make([]float64, d)
				for j := range rows[i] {
					rows[i][j] = rd.F64()
				}
			}
			if rd.Err() != nil {
				return rd.Err()
			}
			m, err := noise.FromRows(rows)
			if err != nil {
				return fmt.Errorf("sim: snapshot noise matrix invalid: %w", err)
			}
			if err := r.setNoise(m); err != nil {
				return err
			}
		}
	} else if r.fs != nil {
		return errors.New("sim: runner has a fault schedule, but the snapshot carries no fault state")
	}

	if err := rd.Err(); err != nil {
		return err
	}
	if rd.Remaining() != 0 {
		return fmt.Errorf("sim: snapshot has %d trailing bytes", rd.Remaining())
	}

	r.completedRound = completed
	r.streak = streak
	r.firstAll = firstAll
	r.lastCorrect = lastCorrect
	r.curRound = completed
	r.ran = false
	return nil
}

// noiseEqual compares two matrices entry-for-entry.
func noiseEqual(a, b *noise.Matrix) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.Alphabet() != b.Alphabet() {
		return false
	}
	for i := 0; i < a.Alphabet(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	return true
}

// snapshot appends the fault runtime state (schedule cursor, application
// stream, telemetry records, crash bookkeeping, drift state).
func (fs *faultState) snapshot(w *SnapWriter) {
	w.Int(fs.cursor)
	for _, s := range fs.stream.State() {
		w.U64(s)
	}
	w.Int(fs.firstPending)
	w.Int(len(fs.records))
	for _, rec := range fs.records {
		w.Int(rec.Round)
		w.U8(uint8(rec.Kind))
		w.Int(rec.Index)
		w.Int(rec.Affected)
		w.Int(rec.RecoveredAt)
	}
	w.Bool(fs.crashUntil != nil)
	if fs.crashUntil != nil {
		for i := range fs.crashUntil {
			w.Int(fs.crashUntil[i])
			w.Int(fs.frozen[i])
		}
	}
	w.Bool(fs.driftOn)
	w.F64(fs.drift.start)
	w.F64(fs.drift.target)
	w.Int(fs.drift.from)
	w.Int(fs.drift.rounds)
}

// restore reads the state written by snapshot. n is the population size (for
// crash-array bounds) and alphabet the number of symbols a crashed agent
// can keep displaying.
func (fs *faultState) restore(rd *SnapReader, n, alphabet int) error {
	cursor := rd.Int()
	var st [4]uint64
	for i := range st {
		st[i] = rd.U64()
	}
	firstPending := rd.Int()
	nrec := rd.Int()
	if rd.Err() != nil {
		return rd.Err()
	}
	if cursor < 0 || cursor > len(fs.timeline) {
		return fmt.Errorf("sim: snapshot fault cursor %d outside timeline [0, %d]", cursor, len(fs.timeline))
	}
	if nrec < 0 || nrec > len(fs.timeline) {
		return fmt.Errorf("sim: snapshot has %d fault records, timeline has %d events", nrec, len(fs.timeline))
	}
	if firstPending < 0 || firstPending > nrec {
		return fmt.Errorf("sim: snapshot fault firstPending %d outside [0, %d]", firstPending, nrec)
	}
	records := make([]faults.Record, nrec)
	for i := range records {
		records[i] = faults.Record{
			Round:       rd.Int(),
			Kind:        faults.Kind(rd.U8()),
			Index:       rd.Int(),
			Affected:    rd.Int(),
			RecoveredAt: rd.Int(),
		}
	}
	hasCrash := rd.Bool()
	if hasCrash != (fs.crashUntil != nil) {
		return errors.New("sim: snapshot crash bookkeeping does not match the runner's schedule")
	}
	if hasCrash {
		fs.crashEnd = 0
		for i := 0; i < n && rd.Err() == nil; i++ {
			until, sym := rd.Int(), rd.Int()
			if until < 0 {
				return fmt.Errorf("sim: snapshot agent %d crashUntil %d is negative", i, until)
			}
			if sym < 0 || sym >= alphabet {
				return fmt.Errorf("sim: snapshot agent %d frozen symbol %d outside alphabet [0, %d)", i, sym, alphabet)
			}
			fs.crashUntil[i], fs.frozen[i] = until, sym
			fs.crashEnd = max(fs.crashEnd, until)
		}
	}
	driftOn := rd.Bool()
	drift := driftState{
		start:  rd.F64(),
		target: rd.F64(),
		from:   rd.Int(),
		rounds: rd.Int(),
	}
	if err := rd.Err(); err != nil {
		return err
	}
	if err := fs.stream.SetState(st); err != nil {
		return err
	}
	fs.cursor = cursor
	fs.firstPending = firstPending
	fs.records = append(fs.records[:0], records...)
	fs.driftOn = driftOn
	fs.drift = drift
	return nil
}

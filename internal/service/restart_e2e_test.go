package service

// End-to-end crash-recovery smoke test: build cmd/simd, start it with a
// journal, SIGKILL it mid-run, restart it over the same journal, and require
// the job to finish with per-seed results identical to an uninterrupted
// engine run — for both the agents (exact) and counts backends. This is the
// test the durability feature exists to pass; CI runs it with -race.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// simdProc is one running simd child process.
type simdProc struct {
	cmd  *exec.Cmd
	addr string
	out  *lockedBuffer
	done chan error
}

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// buildSimd compiles cmd/simd once per test process.
var buildSimd = sync.OnceValues(func() (string, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp("", "simd-e2e-*")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "simd")
	cmd := exec.Command(goBin, "build", "-o", bin, "noisypull/cmd/simd")
	cmd.Dir = "../.." // package dir → module root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
})

// startSimd launches the daemon on a random port and waits for its
// "listening on" line to learn the bound address.
func startSimd(t *testing.T, bin, journalDir string) *simdProc {
	t.Helper()
	p := &simdProc{out: &lockedBuffer{}, done: make(chan error, 1)}
	p.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-journal-dir", journalDir, "-ttl", "10m")
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stderr = p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			_, _ = p.out.Write([]byte(line + "\n"))
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j > 0 {
					select {
					case addrCh <- rest[:j]:
					default:
					}
				}
			}
		}
	}()
	go func() { p.done <- p.cmd.Wait() }()
	select {
	case addr := <-addrCh:
		p.addr = addr
	case err := <-p.done:
		t.Fatalf("simd exited before listening: %v\n%s", err, p.out.String())
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		t.Fatalf("simd never reported its address\n%s", p.out.String())
	}
	return p
}

func (p *simdProc) kill9(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	<-p.done // reap; exit error from SIGKILL is expected
}

// waitDaemonReady polls /readyz until the daemon reports ready, returning the
// replay summary it served.
func waitDaemonReady(t *testing.T, c *Client) *ReplaySummary {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		ready, replay, err := c.Ready(ctx)
		cancel()
		if err == nil && ready {
			return replay
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("restarted daemon never became ready")
	return nil
}

func TestRestartSurvivesKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills child processes")
	}
	bin, err := buildSimd()
	if err != nil {
		t.Skipf("cannot build simd: %v", err)
	}

	cases := []struct {
		name   string
		spec   JobSpec
		killAt int // SIGKILL once the stream reports this round of seed 1
	}{
		{
			// Exact per-agent backend: ~8k rounds/s, so 8000 rounds/seed keeps
			// the daemon busy for ~1s/seed while we kill it at round 2000.
			name: "agents",
			spec: JobSpec{
				N: 2000, H: 1, Sources1: 1, Delta: 0.2,
				Protocol: "voter", Backend: "exact",
				MaxRounds: 8000, StabilityWindow: 8000,
				CheckpointRounds: 500,
				Seeds:            []uint64{1, 2},
			},
			killAt: 2000,
		},
		{
			// Countable-state backend: rounds are O(states), ~1.2M rounds/s;
			// 2M rounds/seed gives the same margin.
			name: "counts",
			spec: JobSpec{
				N: 100_000, H: 1, Sources1: 1, Delta: 0.2,
				Protocol: "voter", Backend: "counts",
				MaxRounds: 2_000_000, StabilityWindow: 2_000_000,
				CheckpointRounds: 100_000,
				Seeds:            []uint64{1, 2},
			},
			killAt: 400_000,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			journalDir := t.TempDir()

			// The uninterrupted control, straight on the engine.
			want := make([]SeedResult, len(tc.spec.Seeds))
			for i, seed := range tc.spec.Seeds {
				want[i] = directResult(t, tc.spec, seed)
			}

			p1 := startSimd(t, bin, journalDir)
			c1 := NewClient("http://" + p1.addr)
			waitDaemonReady(t, c1)
			ctx := context.Background()
			st, err := c1.Submit(ctx, tc.spec)
			if err != nil {
				t.Fatalf("submit: %v\n%s", err, p1.out.String())
			}

			// Stream until seed 1 passes the kill threshold, then SIGKILL the
			// daemon mid-trial. The stream dies with the process; any error
			// after the kill is expected.
			killed := errors.New("killed")
			streamCtx, cancelStream := context.WithTimeout(ctx, 60*time.Second)
			defer cancelStream()
			_, err = c1.Stream(streamCtx, st.ID, func(ev Event) error {
				if ev.Type == "round" && ev.Seed == tc.spec.Seeds[0] && ev.Round >= tc.killAt {
					return killed
				}
				if ev.Type == "status" || (ev.Type == "seed" && ev.Seed == tc.spec.Seeds[len(tc.spec.Seeds)-1]) {
					return fmt.Errorf("job finished before the kill threshold; raise MaxRounds")
				}
				return nil
			})
			if !errors.Is(err, killed) {
				t.Fatalf("stream before kill: %v\n%s", err, p1.out.String())
			}
			p1.kill9(t)

			p2 := startSimd(t, bin, journalDir)
			defer func() {
				_ = p2.cmd.Process.Kill()
				<-p2.done
			}()
			c2 := NewClient("http://" + p2.addr)
			replay := waitDaemonReady(t, c2)
			if replay == nil || replay.Resumed != 1 {
				t.Fatalf("replay summary after restart: %+v\n%s", replay, p2.out.String())
			}

			waitCtx, cancelWait := context.WithTimeout(ctx, 120*time.Second)
			defer cancelWait()
			final, err := c2.Wait(waitCtx, st.ID, 50*time.Millisecond)
			if err != nil {
				t.Fatalf("wait after restart: %v\n%s", err, p2.out.String())
			}
			if final.State != StateDone {
				t.Fatalf("recovered job ended %s (%s)\n%s", final.State, final.Error, p2.out.String())
			}
			if len(final.Results) != len(want) {
				t.Fatalf("recovered job has %d results, want %d", len(final.Results), len(want))
			}
			for i := range want {
				if !sameSeedResult(final.Results[i], want[i]) {
					t.Errorf("seed %d: recovered %+v != uninterrupted %+v", want[i].Seed, final.Results[i], want[i])
				}
			}
		})
	}
}

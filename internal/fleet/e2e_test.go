package fleet

// End-to-end fleet smoke test with real OS processes: build cmd/simd, start
// one coordinator and two workers as child processes, SIGKILL one worker
// while it holds a lease, and require the merged job to finish with per-seed
// results bit-identical to an uninterrupted in-process engine run. Then
// restart the killed worker under the same node id and require it to report
// ready and re-register. CI runs this with -race (the race runtime
// instruments the test binary and its in-process control; the children are
// plain builds, like production).

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"noisypull/internal/service"
)

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
	dir, err := os.MkdirTemp("", "simd-fleet-e2e-*")
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

// startSimd launches one simd child on a random port and waits for its
// "listening on" line to learn the bound address.
func startSimd(t *testing.T, bin string, args ...string) *simdProc {
	t.Helper()
	return startSimdAt(t, bin, "127.0.0.1:0", args...)
}

// startSimdAt is startSimd with an explicit listen address — the
// coordinator-restart e2e needs the revived process on the same address so
// the surviving workers reconnect without reconfiguration.
func startSimdAt(t *testing.T, bin, addr string, args ...string) *simdProc {
	t.Helper()
	p := &simdProc{out: &lockedBuffer{}, done: make(chan error, 1)}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr, "-ttl", "10m"}, args...)...)
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
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	})
	return p
}

func (p *simdProc) kill9(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	<-p.done // reap; exit error from SIGKILL is expected
}

func (p *simdProc) baseURL() string { return "http://" + p.addr }

func waitReady(t *testing.T, baseURL string) {
	t.Helper()
	c := service.NewClient(baseURL)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		ready, _, err := c.Ready(ctx)
		cancel()
		if err == nil && ready {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never became ready", baseURL)
}

// scrapeMetrics fetches a daemon's /metrics text.
func scrapeMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return string(data)
}

// freePort reserves a listen address and releases it, so a child process can
// be started (and later restarted) on a known port.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// metricValue extracts an unlabelled metric's value from a /metrics scrape.
func metricValue(scrape, name string) (float64, bool) {
	for _, line := range strings.Split(scrape, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || len(rest) == 0 || rest[0] != ' ' {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
			return v, true
		}
	}
	return 0, false
}

// waitMetricAtLeast polls /metrics until name's value reaches min.
func waitMetricAtLeast(t *testing.T, baseURL, name string, min float64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		last = scrapeMetrics(t, baseURL)
		if v, ok := metricValue(last, name); ok && v >= min {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("metric %s never reached %g at %s; last scrape:\n%s", name, min, baseURL, last)
}

// waitMetric polls /metrics until the given line fragment appears.
func waitMetric(t *testing.T, baseURL, fragment string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		last = scrapeMetrics(t, baseURL)
		if strings.Contains(last, fragment) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("metric %q never appeared at %s; last scrape:\n%s", fragment, baseURL, last)
}

func TestFleetSurvivesWorkerKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills child processes")
	}
	bin, err := buildSimd()
	if err != nil {
		t.Skipf("cannot build simd: %v", err)
	}

	coord := startSimd(t, bin, "-coordinator",
		"-lease-seeds", "2", "-lease-ttl", "2s", "-node-ttl", "2s", "-fleet-poll", "50ms")
	waitReady(t, coord.baseURL())
	wa := startSimd(t, bin, "-join", coord.baseURL(), "-node-id", "we2e-a", "-worker-slots", "1")
	wb := startSimd(t, bin, "-join", coord.baseURL(), "-node-id", "we2e-b", "-worker-slots", "1")
	waitMetric(t, coord.baseURL(), `simd_fleet_nodes{state="alive"} 2`, 15*time.Second)

	// Every seed runs its full 3000-round horizon (~hundreds of ms in the
	// plain-build children), so killing a busy worker is guaranteed to land
	// mid-lease.
	spec := service.JobSpec{
		N: 2000, H: 1, Sources1: 1, Delta: 0.2,
		Protocol: "voter", Backend: "exact",
		MaxRounds: 3000, StabilityWindow: 3000,
		Seeds: []uint64{1, 2, 3, 4, 5, 6},
	}
	want := directResults(t, spec, spec.Seeds)

	client := service.NewClient(coord.baseURL())
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v\n%s", err, coord.out.String())
	}

	// SIGKILL worker A the moment its own metrics show a lease executing: no
	// result report, no deregistration — the coordinator must re-lease A's
	// range after the deadline and the merged job must stay bit-identical.
	waitMetric(t, wa.baseURL(), "simd_fleet_worker_busy 1", 60*time.Second)
	wa.kill9(t)

	waitCtx, cancelWait := context.WithTimeout(ctx, 180*time.Second)
	defer cancelWait()
	final, err := client.Wait(waitCtx, st.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v\ncoordinator:\n%s", err, coord.out.String())
	}
	if final.State != service.StateDone {
		t.Fatalf("fleet job ended %s (%s)\ncoordinator:\n%s", final.State, final.Error, coord.out.String())
	}
	if !reflect.DeepEqual(final.Results, want) {
		t.Fatalf("merged results differ from single-node control:\n got %+v\nwant %+v", final.Results, want)
	}
	if !strings.Contains(coord.out.String(), "re-leasing") {
		t.Errorf("coordinator log shows no re-lease after the worker kill:\n%s", coord.out.String())
	}

	// Restart the killed worker under the same identity: it must come back
	// ready, re-register, and the fleet must be whole again.
	wa2 := startSimd(t, bin, "-join", coord.baseURL(), "-node-id", "we2e-a", "-worker-slots", "1")
	waitReady(t, wa2.baseURL())
	waitMetric(t, coord.baseURL(), `simd_fleet_nodes{state="alive"} 2`, 15*time.Second)
	waitMetric(t, coord.baseURL(), `simd_fleet_node_info{node="we2e-a"`, 15*time.Second)

	// The revived fleet still computes: a quick job across both workers.
	small := spec
	small.Seeds = []uint64{7, 8}
	small.MaxRounds, small.StabilityWindow = 200, 200
	st2, err := client.Submit(ctx, small)
	if err != nil {
		t.Fatal(err)
	}
	final2, err := client.Wait(waitCtx, st2.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final2.State != service.StateDone {
		t.Fatalf("post-restart job ended %s (%s)", final2.State, final2.Error)
	}
	if !reflect.DeepEqual(final2.Results, directResults(t, small, small.Seeds)) {
		t.Fatal("post-restart fleet results differ from single-node control")
	}

	_ = wb // wb stays up the whole test; cleanup kills it
}

// TestFleetSurvivesCoordinatorKill9 SIGKILLs the coordinator mid-job — after
// at least one result is banked in its journal and while a worker holds an
// in-flight lease — then restarts it on the same address with the same
// journal directory. The revived coordinator must adopt the in-flight leases,
// accept the late deliveries the workers spooled through the outage, and
// finish the job bit-identical to a single-node run without re-dispatching a
// single already-delivered seed.
func TestFleetSurvivesCoordinatorKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills child processes")
	}
	bin, err := buildSimd()
	if err != nil {
		t.Skipf("cannot build simd: %v", err)
	}

	jdir := t.TempDir()
	caddr := freePort(t)
	coordArgs := []string{"-coordinator", "-journal-dir", jdir,
		"-lease-seeds", "1", "-lease-ttl", "8s", "-node-ttl", "8s", "-fleet-poll", "50ms"}
	coord := startSimdAt(t, bin, caddr, coordArgs...)
	waitReady(t, coord.baseURL())
	wa := startSimd(t, bin, "-join", coord.baseURL(), "-node-id", "ck-a", "-worker-slots", "1")
	wb := startSimd(t, bin, "-join", coord.baseURL(), "-node-id", "ck-b", "-worker-slots", "1")
	waitMetric(t, coord.baseURL(), `simd_fleet_nodes{state="alive"} 2`, 15*time.Second)

	// Full-horizon seeds so the kill window (a worker mid-lease) stays open.
	spec := service.JobSpec{
		N: 2000, H: 1, Sources1: 1, Delta: 0.2,
		Protocol: "voter", Backend: "exact",
		MaxRounds: 3000, StabilityWindow: 3000,
		Seeds: []uint64{1, 2, 3, 4, 5, 6},
	}
	want := directResults(t, spec, spec.Seeds)

	client := service.NewClient(coord.baseURL())
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v\n%s", err, coord.out.String())
	}

	// Kill once the journal holds at least one delivered result (results are
	// journaled before they are acked) and a worker is executing a lease.
	waitMetricAtLeast(t, coord.baseURL(), "simd_fleet_results_merged_total", 1, 120*time.Second)
	waitMetric(t, wa.baseURL(), "simd_fleet_worker_busy 1", 60*time.Second)
	coord.kill9(t)

	coord2 := startSimdAt(t, bin, caddr, coordArgs...)
	waitReady(t, coord2.baseURL())

	waitCtx, cancelWait := context.WithTimeout(ctx, 240*time.Second)
	defer cancelWait()
	final, err := client.Wait(waitCtx, st.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("wait after coordinator restart: %v\ncoordinator:\n%s", err, coord2.out.String())
	}
	if final.State != service.StateDone {
		t.Fatalf("job after coordinator restart ended %s (%s)\ncoordinator:\n%s",
			final.State, final.Error, coord2.out.String())
	}
	if !reflect.DeepEqual(final.Results, want) {
		t.Fatalf("results after coordinator restart differ from single-node control:\n got %+v\nwant %+v",
			final.Results, want)
	}

	m := scrapeMetrics(t, coord2.baseURL())
	if !strings.Contains(m, "simd_fleet_seeds_redispatched_total 0") {
		t.Errorf("already-delivered seeds were re-dispatched after restart:\n%s", m)
	}
	if v, ok := metricValue(m, "simd_fleet_leases_adopted_total"); !ok || v < 1 {
		t.Errorf("restarted coordinator adopted no journaled leases (got %g)\n%s", v, coord2.out.String())
	}
	if v, ok := metricValue(m, "simd_fleet_late_deliveries_total"); !ok || v < 1 {
		t.Errorf("no late deliveries landed on adopted leases (got %g)\n%s", v, coord2.out.String())
	}

	// Zero recompute: across both workers exactly len(Seeds) seeds ran.
	va, oka := metricValue(scrapeMetrics(t, wa.baseURL()), "simd_fleet_worker_seeds_total")
	vb, okb := metricValue(scrapeMetrics(t, wb.baseURL()), "simd_fleet_worker_seeds_total")
	if !oka || !okb {
		t.Fatal("worker seed counters missing from /metrics")
	}
	if int(va+vb) != len(spec.Seeds) {
		t.Errorf("workers computed %d seeds for a %d-seed job (recompute after restart)",
			int(va+vb), len(spec.Seeds))
	}
	if !strings.Contains(coord2.out.String(), "to adopt") {
		t.Errorf("restarted coordinator log shows no lease adoption:\n%s", coord2.out.String())
	}
}

// TestFleetSurvivesChaosAndKills runs the fleet under deterministic wire
// chaos with real crashes: a journal-backed coordinator injecting faults on
// its fleet endpoints, two workers injecting faults on their transport
// (drops, delays, duplicates, corruption, periodic partitions), one worker
// SIGKILLed mid-lease and restarted under the same id, then the coordinator
// SIGKILLed mid-job and restarted on the same address over its journal. The
// merged results must equal a single-node run, with no already-delivered
// seed re-dispatched. Each kill waits on metrics, so it lands while the job
// is still running.
func TestFleetSurvivesChaosAndKills(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills child processes")
	}
	bin, err := buildSimd()
	if err != nil {
		t.Skipf("cannot build simd: %v", err)
	}

	jdir := t.TempDir()
	caddr := freePort(t)
	coordArgs := []string{"-coordinator", "-journal-dir", jdir,
		"-lease-seeds", "4", "-lease-ttl", "5s", "-node-ttl", "5s", "-fleet-poll", "50ms",
		"-lease-attempts", "100", "-chaos-spec", "seed=7,drop=0.05,delay=0.1:10ms"}
	startWorker := func(id string, chaosSeed int) *simdProc {
		return startSimd(t, bin, "-join", "http://"+caddr, "-node-id", id, "-worker-slots", "1",
			"-chaos-spec", fmt.Sprintf("seed=%d,drop=0.1,delay=0.2:20ms,dup=0.1,corrupt=0.05,partition=1500ms/6s", chaosSeed))
	}
	coord := startSimdAt(t, bin, caddr, coordArgs...)
	waitReady(t, coord.baseURL())
	wa := startWorker("chaos-a", 11)
	wb := startWorker("chaos-b", 13)
	waitMetric(t, coord.baseURL(), `simd_fleet_nodes{state="alive"} 2`, 30*time.Second)

	spec := service.JobSpec{
		N: 2000, H: 1, Sources1: 1, Delta: 0.2,
		Protocol: "voter", Backend: "exact",
		MaxRounds: 2000, StabilityWindow: 2000,
	}
	for s := uint64(1); s <= 64; s++ {
		spec.Seeds = append(spec.Seeds, s)
	}
	client := service.NewClient(coord.baseURL())
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v\n%s", err, coord.out.String())
	}

	// Worker kill: once worker A is executing a lease.
	waitMetric(t, wa.baseURL(), "simd_fleet_worker_busy 1", 120*time.Second)
	wa.kill9(t)
	wa2 := startWorker("chaos-a", 17)
	waitReady(t, wa2.baseURL())

	// Coordinator kill: once a result is journaled and a worker is busy.
	waitMetricAtLeast(t, coord.baseURL(), "simd_fleet_results_merged_total", 1, 120*time.Second)
	waitMetric(t, wb.baseURL(), "simd_fleet_worker_busy 1", 120*time.Second)
	coord.kill9(t)
	coord2 := startSimdAt(t, bin, caddr, coordArgs...)
	waitReady(t, coord2.baseURL())
	rctx, rcancel := context.WithTimeout(ctx, 5*time.Second)
	_, replay, err := client.Ready(rctx)
	rcancel()
	if err != nil || replay == nil || replay.Resumed != 1 {
		t.Fatalf("restarted coordinator replay = %+v (%v), want the job resumed mid-run", replay, err)
	}

	waitCtx, cancelWait := context.WithTimeout(ctx, 600*time.Second)
	defer cancelWait()
	final, err := client.Wait(waitCtx, st.ID, 100*time.Millisecond)
	if err != nil {
		t.Fatalf("wait after coordinator restart: %v\ncoordinator:\n%s", err, coord2.out.String())
	}
	if final.State != service.StateDone {
		t.Fatalf("chaos job ended %s (%s)\ncoordinator:\n%s", final.State, final.Error, coord2.out.String())
	}
	if want := directResults(t, spec, spec.Seeds); !reflect.DeepEqual(final.Results, want) {
		t.Fatalf("chaotic fleet results differ from single-node control:\n got %+v\nwant %+v", final.Results, want)
	}
	if m := scrapeMetrics(t, coord2.baseURL()); !strings.Contains(m, "simd_fleet_seeds_redispatched_total 0\n") {
		t.Errorf("already-delivered seeds were re-dispatched after restart:\n%s", m)
	}
}

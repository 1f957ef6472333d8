package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"
)

func TestRingStructure(t *testing.T) {
	g, err := Ring(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 10 {
		t.Fatalf("N = %d", g.N())
	}
	for v := 0; v < 10; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("vertex %d degree %d, want 4", v, g.Degree(v))
		}
	}
	if g.MinDegree() != 4 {
		t.Fatalf("MinDegree = %d", g.MinDegree())
	}
	if !g.IsConnected() {
		t.Fatal("ring not connected")
	}
	// Vertex 0's neighbors are {1, 2, 8, 9}.
	want := map[int32]bool{1: true, 2: true, 8: true, 9: true}
	for _, w := range g.Neighbors(0) {
		if !want[w] {
			t.Fatalf("unexpected neighbor %d of 0", w)
		}
		delete(want, w)
	}
	if len(want) != 0 {
		t.Fatalf("missing neighbors: %v", want)
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := Ring(4, 2); err == nil {
		t.Error("Ring(4,2) accepted")
	}
	if _, err := Ring(10, 0); err == nil {
		t.Error("Ring(10,0) accepted")
	}
	// Vertex ids and offsets are int32; these would overflow them.
	if _, err := Ring(1<<31, 1); err == nil {
		t.Error("Ring(1<<31, 1) accepted")
	}
	if _, err := Ring(1<<30, 1); err == nil {
		t.Error("Ring(1<<30, 1) accepted: 2·n·k = 1<<31")
	}
	if _, err := ErdosRenyi(1<<31, 0, 1); err == nil {
		t.Error("ErdosRenyi(1<<31, 0) accepted")
	}
}

// checkSimpleRegular fails t unless g is a simple d-regular graph.
func checkSimpleRegular(t *testing.T, g *Graph, d int) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != d {
			t.Fatalf("n=%d d=%d: vertex %d has degree %d", g.N(), d, v, g.Degree(v))
		}
		// Simple graph: no self-loops, no duplicates.
		seen := map[int32]bool{}
		for _, w := range g.Neighbors(v) {
			if int(w) == v {
				t.Fatalf("n=%d d=%d: self-loop at %d", g.N(), d, v)
			}
			if seen[w] {
				t.Fatalf("n=%d d=%d: duplicate edge %d-%d", g.N(), d, v, w)
			}
			seen[w] = true
		}
	}
}

func TestRandomRegularProperties(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{50, 4}, {101, 8}, {64, 3}} {
		g, err := RandomRegular(tc.n, tc.d, 7)
		if err != nil {
			t.Fatalf("RandomRegular(%d, %d): %v", tc.n, tc.d, err)
		}
		checkSimpleRegular(t, g, tc.d)
		// d-regular graphs with d >= 3 are connected w.h.p.
		if tc.d >= 3 && !g.IsConnected() {
			t.Fatalf("n=%d d=%d: disconnected", tc.n, tc.d)
		}
	}
}

func TestRandomRegularValidation(t *testing.T) {
	if _, err := RandomRegular(10, 0, 1); err == nil {
		t.Error("degree 0 accepted")
	}
	if _, err := RandomRegular(10, 10, 1); err == nil {
		t.Error("degree n accepted")
	}
	if _, err := RandomRegular(5, 3, 1); err == nil {
		t.Error("odd n*d accepted")
	}
	// Vertex ids and offsets are int32; these would overflow them.
	if _, err := RandomRegular(1<<31, 4, 1); err == nil {
		t.Error("n = 1<<31 accepted")
	}
	if _, err := RandomRegular(1<<20, 1<<11, 1); err == nil {
		t.Error("n·d = 1<<31 accepted")
	}
}

func TestRandomRegularDeterministic(t *testing.T) {
	a, err := RandomRegular(40, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomRegular(40, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 40; v++ {
		an, bn := a.Neighbors(v), b.Neighbors(v)
		if len(an) != len(bn) {
			t.Fatal("nondeterministic generation")
		}
		for i := range an {
			if an[i] != bn[i] {
				t.Fatal("nondeterministic generation")
			}
		}
	}
}

// csrDigest is the hex sha256 over g's off then nbrs arrays, each entry
// written as a little-endian int32.
func csrDigest(g *Graph) string {
	off, nbrs := g.CSR()
	h := sha256.New()
	var buf [4]byte
	for _, s := range [][]int32{off, nbrs} {
		for _, x := range s {
			binary.LittleEndian.PutUint32(buf[:], uint32(x))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRandomRegularGolden pins the exact graphs RandomRegular builds, so
// any change to its RNG draws or swap decisions shows up as a digest
// mismatch. The first seven shapes are those other tests and benchmarks
// build; the dense ones make the repair loop do most of the work.
func TestRandomRegularGolden(t *testing.T) {
	cases := []struct {
		n, d int
		seed uint64
		want string
	}{
		{50, 4, 7, "0862b3671852b2a47d19d80866ffdf87a1c9ee1ed930be7acf978ffd1e54e30f"},
		{101, 8, 7, "2b238a950c0a5202fde7c9d19214aa43946670e3596479052a6e0294a223ebf0"},
		{64, 3, 7, "d133eff6f21ee4e00ffd1c23f4a40e2d0a713ae3e67364f8576c667ef2e03fa2"},
		{40, 4, 99, "c1c18c183d85297396239dfa38cbc53111a32c9e1f9de6bc80dbeda4d00f7269"},
		{60, 4, 7, "0482282501fec125e06033cc983d9fda6a413fc08bf43099520c7f8eb3fbcba4"},
		{256, 16, 7, "0bc6fce250c082e5433cc6031bb0ff52469a3f004c0588651367fbf5739f0ba7"},
		{500, 8, 99, "aeb3d234721f2cca779cb353a9859b80d43c97bc4462319fc94c60ce014dbe11"},
		{10, 8, 2, "e4220a23add4962e5f8941c48aa6f48c2e6adaa1b5f59875f0c8fd1c57d028cf"},
		{20, 19, 33, "cc65dcd2113432729bdf7cff41d0910f2701e76f51184846facb720b6986d841"},
		{30, 28, 1, "88567fb153e1983b7f34bb8cb2c53a4aba81a3e77a4349b9187b4efa240dbba6"},
		{1_000_000, 8, 11, "96336aea8594bddc46f7ede44301e7419a7b558f482562e60cd91ad01ad76f3d"},
	}
	for _, tc := range cases {
		if tc.n >= 1_000_000 && testing.Short() {
			continue
		}
		g, err := RandomRegular(tc.n, tc.d, tc.seed)
		if err != nil {
			t.Fatalf("RandomRegular(%d, %d, %d): %v", tc.n, tc.d, tc.seed, err)
		}
		if got := csrDigest(g); got != tc.want {
			t.Errorf("RandomRegular(%d, %d, %d) digest %s, want %s", tc.n, tc.d, tc.seed, got, tc.want)
		}
	}
}

// TestRandomRegularDense runs the repair loop where it works hardest. Dense
// pairings carry many self-loops, and two self-loops (a,a),(c,c) can swap
// into a double edge (a,c), so the set of bad edges can grow during repair.
// Every graph returned must be simple and d-regular. (16, 7) is the densest
// shape at n = 16 the repair runs on; (10, 8) and (30, 28) are past
// 2d > n−1 and built as complements. A seed that uses up the swap budget
// fails; how many do is pinned, because it depends on every RNG draw and
// swap decision the repair makes.
func TestRandomRegularDense(t *testing.T) {
	for _, tc := range []struct{ n, d, unconverged int }{{10, 8, 0}, {16, 6, 0}, {16, 7, 0}, {30, 28, 0}} {
		unconverged := 0
		for seed := uint64(1); seed <= 200; seed++ {
			g, err := RandomRegular(tc.n, tc.d, seed)
			if err != nil {
				if !strings.Contains(err.Error(), "did not converge") {
					t.Fatalf("RandomRegular(%d, %d, %d): %v", tc.n, tc.d, seed, err)
				}
				unconverged++
				continue
			}
			checkSimpleRegular(t, g, tc.d)
		}
		if unconverged != tc.unconverged {
			t.Errorf("n=%d d=%d: %d of 200 seeds did not converge, want %d", tc.n, tc.d, unconverged, tc.unconverged)
		}
	}
}

// BenchmarkRandomRegular1M builds the 10⁶-vertex 8-regular graph that
// experiment-scale graph runs share.
func BenchmarkRandomRegular1M(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RandomRegular(1_000_000, 8, 11); err != nil {
			b.Fatal(err)
		}
	}
}

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi(200, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Expected degree ~20; check the total edge count is in a sane band.
	total := 0
	for v := 0; v < 200; v++ {
		total += g.Degree(v)
	}
	edges := total / 2
	// E = C(200,2)*0.1 = 1990, sd ~ 42.
	if edges < 1700 || edges > 2300 {
		t.Fatalf("G(200, .1) has %d edges", edges)
	}
	if !g.IsConnected() {
		t.Fatal("G(200, .1) should be connected w.h.p.")
	}
	if _, err := ErdosRenyi(0, 0.5, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := ErdosRenyi(10, 1.5, 1); err == nil {
		t.Error("p>1 accepted")
	}
}

func TestErdosRenyiEdgeProbabilities(t *testing.T) {
	empty, err := ErdosRenyi(20, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if empty.MinDegree() != 0 || empty.IsConnected() {
		t.Fatal("G(20, 0) should be empty and disconnected")
	}
	full, err := ErdosRenyi(20, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 20; v++ {
		if full.Degree(v) != 19 {
			t.Fatalf("G(20,1) vertex %d degree %d", v, full.Degree(v))
		}
	}
}

func TestIsConnectedDetectsSplit(t *testing.T) {
	// Two disjoint triangles.
	g := build(6, []int32{0, 1, 2, 3, 4, 5}, []int32{1, 2, 0, 4, 5, 3})
	if g.IsConnected() {
		t.Fatal("disjoint triangles reported connected")
	}
}

func TestCSRMatchesNeighbors(t *testing.T) {
	g, err := RandomRegular(60, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	off, nbrs := g.CSR()
	if len(off) != g.N()+1 {
		t.Fatalf("CSR off length %d, want %d", len(off), g.N()+1)
	}
	if int(off[g.N()]) != len(nbrs) {
		t.Fatalf("CSR off[n] = %d, nbrs length %d", off[g.N()], len(nbrs))
	}
	for v := 0; v < g.N(); v++ {
		row := nbrs[off[v]:off[v+1]]
		want := g.Neighbors(v)
		if len(row) != len(want) {
			t.Fatalf("vertex %d: CSR row length %d, Neighbors %d", v, len(row), len(want))
		}
		for j := range row {
			if row[j] != want[j] {
				t.Fatalf("vertex %d neighbor %d: CSR %d, Neighbors %d", v, j, row[j], want[j])
			}
		}
	}
	if g.MaxDegree() != 4 || g.MinDegree() != 4 {
		t.Fatalf("regular graph degrees: max %d min %d, want 4", g.MaxDegree(), g.MinDegree())
	}
}

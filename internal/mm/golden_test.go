package mm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/clique"
	"repro/internal/matrix"
	"repro/internal/prng"
)

// TestDataflowProductGolden pins the bytes of the two dataflow backends: a
// SHA-256 over the product's float64 bits, the simulator's counters and its
// per-superstep trace, across square (d = n) and idle-machine (d < n)
// shapes, with zero entries in A so the skipped terms are pinned too. Both
// executors must give the same digest. The products are compared bit for
// bit rather than within a tolerance: a change to a receiver's summation
// order moves only the last bits, which a 1e-9 comparison cannot see.
func TestDataflowProductGolden(t *testing.T) {
	shapes := [][2]int{ // (d, n)
		{1, 1}, {2, 2}, {5, 5}, {8, 8}, {16, 16}, {27, 27}, {30, 30}, {40, 40}, {64, 64},
		{10, 27}, {7, 64}, {12, 40},
	}
	want := map[string]string{
		"naive":      "87de74f8a3df6f749ed3fc21718b65cfce0e712b0f6960702a9156a6e294a642",
		"semiring3d": "3cd13e63951877ac81f1f2054dde88536322c7f6496cb8b7926005fac82d1cef",
	}
	executors := []struct {
		name string
		new  func(int) *clique.Sim
	}{{"charged", clique.MustNew}, {"materializing", clique.NewMaterializing}}
	for _, be := range []Backend{Naive{}, Semiring3D{}} {
		for _, ex := range executors {
			h := sha256.New()
			for _, sh := range shapes {
				d, n := sh[0], sh[1]
				src := prng.New(uint64(1000*d + n))
				a := randomStochastic(d, src)
				for i := 0; i < d; i++ {
					row := a.Row(i)
					for j := range row {
						if (i+2*j)%5 == 0 {
							row[j] = 0
						}
					}
				}
				b := randomStochastic(d, src)
				sim := ex.new(n)
				sim.EnableTrace()
				c, err := be.Mul(sim, a, b)
				if err != nil {
					t.Fatalf("%s %s d=%d n=%d: %v", be.Name(), ex.name, d, n, err)
				}
				writeProduct(h, c)
				fmt.Fprintf(h, "%d %d %d %+v\n", sim.Rounds(), sim.Supersteps(), sim.TotalWords(), sim.Stats())
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[be.Name()] {
				t.Errorf("%s on the %s executor: digest %s, want %s", be.Name(), ex.name, got, want[be.Name()])
			}
		}
	}
}

// writeProduct hashes a matrix's entries as float64 bits, row by row.
func writeProduct(h interface{ Write([]byte) (int, error) }, m *matrix.Matrix) {
	var buf [8]byte
	for i := 0; i < m.Rows(); i++ {
		for _, v := range m.Row(i) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
}

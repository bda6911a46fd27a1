package matrix

import (
	"bytes"
	"math"
	"testing"
)

// Fuzz targets for the binary codec behind core.Prepared's snapshot codec
// (kept for the frozen benchmark harness). The invariants: decoding
// arbitrary bytes never panics (and never allocates before validating — the
// dimension and payload-length guards run first); a successful decode
// re-encodes to exactly the bytes it consumed (decode∘encode is the identity
// on the consumed prefix); truncated or dimension-damaged inputs error.
// Payload bit damage is not detectable at this layer by design — any 8 bytes
// are a valid float64 pattern.

func validCodecSeeds() [][]byte {
	m := MustNew(3, 2)
	vals := []float64{0, 1.5, -2.25, math.Inf(1), math.NaN(), 5e-324}
	for i := range vals {
		m.Set(i/2, i%2, vals[i])
	}
	one := MustNew(1, 1)
	one.Set(0, 0, -0.0)
	sq := MustNew(2, 2)
	sq.Set(0, 0, 0.5)
	sq.Set(0, 1, 0.5)
	sq.Set(1, 0, 0.25)
	sq.Set(1, 1, 0.75)
	pd, err := NewPowerDyadic(sq, 3, 0.001)
	if err != nil {
		panic(err)
	}
	pdBytes, err := pd.AppendBinary(nil)
	if err != nil {
		panic(err)
	}
	return [][]byte{
		m.AppendBinary(nil),
		one.AppendBinary(nil),
		append(m.AppendBinary(nil), 0xff, 0x00), // trailing garbage
		pdBytes,
	}
}

func FuzzMatrixCodecRoundtrip(f *testing.F) {
	for _, seed := range validCodecSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})                                // empty
	f.Add([]byte{1, 0, 0, 0})                      // truncated header
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0})          // zero rows
	f.Add([]byte{255, 255, 255, 255, 1, 0, 0, 0})  // absurd rows
	f.Add([]byte{2, 0, 0, 0, 2, 0, 0, 0, 1, 2, 3}) // truncated payload
	fuzz := func(t *testing.T, data []byte) {
		m, rest, err := DecodeBinary(data)
		if err != nil {
			if m != nil || rest != nil {
				t.Fatalf("error return carried non-nil results: %v %v", m, rest)
			}
			return
		}
		if m.Rows() <= 0 || m.Cols() <= 0 || m.Rows() > 1<<20 || m.Cols() > 1<<20 {
			t.Fatalf("decoded out-of-range dimensions %dx%d", m.Rows(), m.Cols())
		}
		consumed := data[:len(data)-len(rest)]
		re := m.AppendBinary(nil)
		if !bytes.Equal(re, consumed) {
			t.Fatalf("re-encode of decoded %dx%d differs from consumed %d bytes", m.Rows(), m.Cols(), len(consumed))
		}
		// A second decode of the re-encoding must reproduce the matrix
		// bit for bit.
		m2, rest2, err := DecodeBinary(re)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-decode failed: %v (rest %d)", err, len(rest2))
		}
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				if math.Float64bits(m.At(i, j)) != math.Float64bits(m2.At(i, j)) {
					t.Fatalf("entry (%d,%d) changed across roundtrip", i, j)
				}
			}
		}
		// Every strict prefix of the consumed encoding must error, never
		// panic: truncation damage is always detected.
		for _, cut := range []int{0, 4, 7, len(consumed) / 2, len(consumed) - 1} {
			if cut < 0 || cut >= len(consumed) {
				continue
			}
			if _, _, err := DecodeBinary(consumed[:cut]); err == nil {
				t.Fatalf("decode of %d-byte truncation of a %d-byte encoding succeeded", cut, len(consumed))
			}
		}
	}
	f.Fuzz(fuzz)
}

func FuzzPowerDyadicDecode(f *testing.F) {
	for _, seed := range validCodecSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})  // zero level count
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 65, 0, 0, 0}) // count 65 > 64 guard
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0})  // one level, no matrix
	fuzz := func(t *testing.T, data []byte) {
		pd, rest, err := DecodePowerDyadic(data)
		if err != nil {
			return
		}
		if len(pd.Pows) <= 0 || len(pd.Pows) > 64 {
			t.Fatalf("decoded out-of-range level count %d", len(pd.Pows))
		}
		for e, p := range pd.Pows {
			if p == nil {
				t.Fatalf("decoded nil level %d", e)
			}
		}
		consumed := data[:len(data)-len(rest)]
		re, err := pd.AppendBinary(nil)
		if err != nil {
			t.Fatalf("re-encode of decoded table failed: %v", err)
		}
		if !bytes.Equal(re, consumed) {
			t.Fatalf("re-encode differs from consumed %d bytes", len(consumed))
		}
		for _, cut := range []int{0, 11, len(consumed) / 2, len(consumed) - 1} {
			if cut < 0 || cut >= len(consumed) {
				continue
			}
			if _, _, err := DecodePowerDyadic(consumed[:cut]); err == nil {
				t.Fatalf("decode of %d-byte truncation of a %d-byte encoding succeeded", cut, len(consumed))
			}
		}
	}
	f.Fuzz(fuzz)
}

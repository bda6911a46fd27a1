package matrix

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary encoding below backs core.Prepared's snapshot codec, which only
// the frozen benchmark harness (bench/trace.go) still times; it goes with the
// benchmark's next revision. It is deterministic — the same matrix always
// encodes to the same bytes — and bit-exact — float64 entries round-trip
// through math.Float64bits, so a decoded matrix is indistinguishable from the
// original in every arithmetic sense, negative zeros and subnormals included.
// Layout is little-endian: rows uint32, cols uint32, then rows*cols IEEE-754
// bit patterns in row-major order.

// maxEncodedDim bounds decoded dimensions: a guard against corrupt or
// adversarial headers allocating absurd buffers. 1<<20 rows or cols is far
// beyond any graph this simulator can hold in memory.
const maxEncodedDim = 1 << 20

// AppendBinary appends the deterministic binary encoding of m to buf and
// returns the extended slice.
func (m *Matrix) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.cols))
	for _, v := range m.data {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// EncodedSize reports the exact byte length AppendBinary will append.
func (m *Matrix) EncodedSize() int { return 8 + 8*len(m.data) }

// DecodeBinary decodes one matrix from the front of buf, returning it and
// the remaining bytes. Decoding is bit-exact with respect to AppendBinary.
func DecodeBinary(buf []byte) (*Matrix, []byte, error) {
	if len(buf) < 8 {
		return nil, nil, fmt.Errorf("matrix: decode: truncated header (%d bytes)", len(buf))
	}
	rows := int(binary.LittleEndian.Uint32(buf))
	cols := int(binary.LittleEndian.Uint32(buf[4:]))
	buf = buf[8:]
	if rows <= 0 || cols <= 0 || rows > maxEncodedDim || cols > maxEncodedDim {
		return nil, nil, fmt.Errorf("matrix: decode: invalid dimensions %dx%d", rows, cols)
	}
	need := rows * cols * 8
	if len(buf) < need {
		return nil, nil, fmt.Errorf("matrix: decode: %dx%d needs %d payload bytes, have %d", rows, cols, need, len(buf))
	}
	m := MustNew(rows, cols)
	for i := range m.data {
		m.data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return m, buf[need:], nil
}

// AppendBinary appends the deterministic binary encoding of the dyadic power
// table: the truncation unit's bit pattern, the level count, then each level
// matrix. Every level of a table built by NewPowerDyadic is non-nil; tables
// with nil levels cannot be encoded.
func (pd *PowerDyadic) AppendBinary(buf []byte) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(pd.Delta))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pd.Pows)))
	for e, p := range pd.Pows {
		if p == nil {
			return nil, fmt.Errorf("matrix: encode: dyadic table level %d is nil", e)
		}
		buf = p.AppendBinary(buf)
	}
	return buf, nil
}

// DecodePowerDyadic decodes one dyadic power table from the front of buf,
// returning it and the remaining bytes.
func DecodePowerDyadic(buf []byte) (*PowerDyadic, []byte, error) {
	if len(buf) < 12 {
		return nil, nil, fmt.Errorf("matrix: decode: truncated dyadic table header (%d bytes)", len(buf))
	}
	delta := math.Float64frombits(binary.LittleEndian.Uint64(buf))
	count := int(binary.LittleEndian.Uint32(buf[8:]))
	buf = buf[12:]
	if count <= 0 || count > 64 {
		return nil, nil, fmt.Errorf("matrix: decode: invalid dyadic table level count %d", count)
	}
	pd := &PowerDyadic{Pows: make([]*Matrix, count), Delta: delta}
	for e := 0; e < count; e++ {
		var err error
		pd.Pows[e], buf, err = DecodeBinary(buf)
		if err != nil {
			return nil, nil, fmt.Errorf("matrix: decode: dyadic table level %d: %w", e, err)
		}
	}
	return pd, buf, nil
}

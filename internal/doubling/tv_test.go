package doubling

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

// tvDistance returns the total variation distance between the empirical
// distributions of two outcome counts, over the union of their supports.
// It sums over sorted keys, so the result does not depend on map order.
func tvDistance(a, b map[string]int) (float64, error) {
	var na, nb int
	keys := make([]string, 0, len(a)+len(b))
	for k, c := range a {
		na += c
		keys = append(keys, k)
	}
	for k, c := range b {
		nb += c
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	if na == 0 || nb == 0 {
		return 0, fmt.Errorf("TV of empty empirical distribution")
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += math.Abs(float64(a[k])/float64(na) - float64(b[k])/float64(nb))
	}
	return sum / 2, nil
}

func TestTVDistanceSymmetricAndBounded(t *testing.T) {
	f := func(seed uint64) bool {
		src := prng.New(seed)
		a, b := make(map[string]int), make(map[string]int)
		for i := 0; i < 200; i++ {
			a[fmt.Sprintf("k%d", src.Intn(6))]++
			b[fmt.Sprintf("k%d", src.Intn(9))]++
		}
		ab, err1 := tvDistance(a, b)
		ba, err2 := tvDistance(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		if math.Abs(ab-ba) > 1e-12 {
			return false
		}
		if ab < 0 || ab > 1 {
			return false
		}
		aa, err := tvDistance(a, a)
		return err == nil && aa < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTVDistanceEmpty(t *testing.T) {
	if _, err := tvDistance(map[string]int{}, map[string]int{}); err == nil {
		t.Error("expected error for empty distributions")
	}
}

func TestTVDistanceDisjoint(t *testing.T) {
	tv, err := tvDistance(map[string]int{"x": 1}, map[string]int{"y": 1})
	if err != nil || math.Abs(tv-1) > 1e-12 {
		t.Errorf("TV of disjoint supports = %g, %v; want 1", tv, err)
	}
}

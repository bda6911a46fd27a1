package graph

import (
	"fmt"
	"sort"

	"repro/internal/prng"
)

// familyBuilders maps a family name to a constructor taking a target vertex
// count and a randomness source (used only by the random families). Families
// whose generators are parameterized differently (grid sides, hypercube
// dimension, lollipop split) round n up to the generator's nearest valid
// shape, so the realized vertex count may exceed the request slightly.
var familyBuilders = map[string]func(n int, src *prng.Source) (*Graph, error){
	"complete": func(n int, _ *prng.Source) (*Graph, error) { return Complete(n) },
	"path":     func(n int, _ *prng.Source) (*Graph, error) { return Path(n) },
	"cycle":    func(n int, _ *prng.Source) (*Graph, error) { return Cycle(n) },
	"star":     func(n int, _ *prng.Source) (*Graph, error) { return Star(n) },
	"wheel":    func(n int, _ *prng.Source) (*Graph, error) { return Wheel(n) },
	"grid": func(n int, _ *prng.Source) (*Graph, error) {
		side := 1
		for side*side < n {
			side++
		}
		return Grid(side, side)
	},
	"torus": func(n int, _ *prng.Source) (*Graph, error) {
		side := 3
		for side*side < n {
			side++
		}
		return Torus(side, side)
	},
	"hypercube": func(n int, _ *prng.Source) (*Graph, error) {
		d := 1
		for (1 << d) < n {
			d++
		}
		return Hypercube(d)
	},
	"binarytree": func(n int, _ *prng.Source) (*Graph, error) { return BinaryTree(n) },
	"bipartite":  func(n int, _ *prng.Source) (*Graph, error) { return UnbalancedBipartite(n) },
	"lollipop":   func(n int, _ *prng.Source) (*Graph, error) { return Lollipop(n/2, n-n/2) },
	"barbell":    func(n int, _ *prng.Source) (*Graph, error) { return Barbell((n + 1) / 2) },
	"er":         func(n int, src *prng.Source) (*Graph, error) { return ErdosRenyi(n, 0.3, src) },
	"regular":    func(n int, src *prng.Source) (*Graph, error) { return RandomRegular(n, 4, src) },
	"expander":   func(n int, src *prng.Source) (*Graph, error) { return Expander(n, src) },
}

// FamilyNames lists the graph families FromFamily can construct, sorted.
func FamilyNames() []string {
	names := make([]string, 0, len(familyBuilders))
	for name := range familyBuilders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FromFamily builds the named graph family at (approximately) n vertices.
// Random families (er, regular, expander) draw from src and are
// deterministic in its seed; deterministic families ignore src. It refuses
// n above MaxVertices.
func FromFamily(name string, n int, src *prng.Source) (*Graph, error) {
	if err := checkVertexCount(n); err != nil {
		return nil, err
	}
	build, ok := familyBuilders[name]
	if !ok {
		return nil, fmt.Errorf("graph: unknown family %q (known: %v)", name, FamilyNames())
	}
	return build(n, src)
}

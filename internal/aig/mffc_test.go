package aig_test

import (
	"math/rand"
	"slices"
	"testing"

	"accals/internal/aig"
	"accals/internal/circuits"
)

// refSizeExcluding is the MFFC size of id with the keep nodes held
// externally referenced, by definition: raise their reference counts,
// size the cone, restore.
func refSizeExcluding(g *aig.Graph, id int, refs []int, keep []int) int {
	for _, k := range keep {
		refs[k]++
	}
	size := g.MFFCSize(id, refs)
	for _, k := range keep {
		refs[k]--
	}
	return size
}

// checkKept fails t unless, for every AND node of g, Mark returns
// MFFCSize and size − Kept(keep) equals refSizeExcluding: for every
// single lower node, and for sets of two and three lower nodes drawn
// from the cone and from outside it.
func checkKept(t *testing.T, name string, g *aig.Graph, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	refs := g.RefCounts()
	m := g.NewMFFC(refs)
	var cone, keep []int
	for id := 0; id < g.NumNodes(); id++ {
		if !g.IsAnd(id) {
			continue
		}
		size := m.Mark(id)
		if want := g.MFFCSize(id, refs); size != want {
			t.Fatalf("%s: Mark(%d) = %d, want MFFCSize %d", name, id, size, want)
		}
		cone = cone[:0]
		for d := 1; d < id; d++ {
			want := refSizeExcluding(g, id, refs, []int{d})
			if got := size - m.Kept([]int{d}); got != want {
				t.Fatalf("%s: target %d keeping {%d}: size − Kept = %d, want %d", name, id, d, got, want)
			}
			if want < size {
				cone = append(cone, d)
			}
		}
		if id < 3 {
			continue
		}
		for trial := 0; trial < 8; trial++ {
			keep = keep[:0]
			for len(keep) < 2+trial%2 {
				d := 1 + rng.Intn(id-1)
				if len(cone) > 0 && rng.Intn(3) > 0 {
					d = cone[rng.Intn(len(cone))]
				}
				if !slices.Contains(keep, d) {
					keep = append(keep, d)
				}
			}
			want := refSizeExcluding(g, id, refs, keep)
			if got := size - m.Kept(keep); got != want {
				t.Fatalf("%s: target %d keeping %v: size − Kept = %d, want %d", name, id, keep, got, want)
			}
		}
	}
	fresh := g.RefCounts()
	for i := range refs {
		if refs[i] != fresh[i] {
			t.Fatalf("%s: refs[%d] = %d after marking, want %d", name, i, refs[i], fresh[i])
		}
	}
}

func TestMFFCKeptMatchesRefsIncrement(t *testing.T) {
	for _, name := range []string{"mtp8", "wal8", "alu4", "rca8"} {
		g, err := circuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		checkKept(t, name, g, 1)
	}
	for seed := int64(1); seed <= 20; seed++ {
		checkKept(t, "random", circuits.RandomLogic("r", 4+int(seed%6), 1+int(seed%4), 20+int(seed)*15, seed), seed)
	}
}

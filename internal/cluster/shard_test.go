package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/nu-aqualab/borges/internal/asnum"
)

// exportBytes renders a mapping the way borges -format jsonl would.
func exportBytes(t testing.TB, m *Mapping) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, m); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

// testNamer derives a deterministic name from the smallest member so
// name assignment exercises the interning path identically across
// build strategies.
func testNamer(members []asnum.ASN) string {
	if members[0]%3 == 0 {
		return "" // some clusters stay unnamed
	}
	return fmt.Sprintf("Org-%d", members[0]%512)
}

// oracleBuild consolidates b's sets with the map-based UnionFind — the
// reference the dense union-find behind Build and BuildSharded is
// checked against — and materializes the result the same way.
func oracleBuild(b *Builder, namer Namer) *Mapping {
	uf := NewUnionFind()
	for _, a := range b.universe {
		uf.Add(a)
	}
	for _, s := range b.sets {
		uf.UnionAll(s.ASNs)
	}
	return b.materialize(uf.Components(), namer)
}

// TestShardedEquivalenceQuick is the consolidation property: for
// arbitrary sibling-set inputs, the dense union-find (one worker via
// Build, several via BuildSharded) and the UnionFind oracle export
// byte-identical JSONL.
func TestShardedEquivalenceQuick(t *testing.T) {
	f := func(rawSets [][]uint16, universe []uint16, workerSeed uint8) bool {
		b := NewBuilder()
		for _, u := range universe {
			b.AddUniverse(asnum.ASN(u))
		}
		for i, raw := range rawSets {
			asns := make([]asnum.ASN, len(raw))
			for j, a := range raw {
				asns[j] = asnum.ASN(a)
			}
			b.Add(SiblingSet{ASNs: asns, Source: Feature(i % NumFeatures)})
		}
		workers := int(workerSeed)%7 + 2 // 2..8
		want := exportBytes(t, oracleBuild(b, testNamer))
		return bytes.Equal(want, exportBytes(t, b.Build(testNamer))) &&
			bytes.Equal(want, exportBytes(t, b.BuildSharded(testNamer, workers)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestShardedEquivalenceLarge repeats the byte-identity check on a
// heavily overlapping seeded instance big enough to exercise every
// shard boundary, the frontier merge, and the page-index path of the
// mapping.
func TestShardedEquivalenceLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	b := NewBuilder()
	const n = 8192
	for a := 1; a <= n; a++ {
		b.AddUniverse(asnum.ASN(a))
	}
	for i := 0; i < 4*n; i++ {
		size := rng.Intn(6) + 2
		set := SiblingSet{Source: Feature(i % NumFeatures)}
		base := rng.Intn(n) + 1
		for j := 0; j < size; j++ {
			// Mostly near-neighbours with occasional long-range edges,
			// so components of very different sizes emerge.
			a := base + rng.Intn(16) - 8
			if rng.Intn(64) == 0 {
				a = rng.Intn(n) + 1
			}
			if a < 1 {
				a = 1
			}
			if a > n {
				a = n
			}
			set.ASNs = append(set.ASNs, asnum.ASN(a))
		}
		b.Add(set)
	}
	oracle := oracleBuild(b, testNamer)
	want := exportBytes(t, oracle)
	for _, workers := range []int{1, 2, 3, 8, 16} {
		got := exportBytes(t, b.BuildSharded(testNamer, workers))
		if !bytes.Equal(want, got) {
			t.Fatalf("BuildSharded(workers=%d) diverges from the UnionFind oracle", workers)
		}
	}
	if oracle.NumASNs() != n {
		t.Fatalf("NumASNs = %d, want %d", oracle.NumASNs(), n)
	}
}

// TestBuildShardedDefaultWorkers covers the workers<=0 GOMAXPROCS
// default and repeated builds from one Builder.
func TestBuildShardedDefaultWorkers(t *testing.T) {
	b := NewBuilder()
	b.AddUniverse(7, 8, 9)
	b.Add(SiblingSet{ASNs: []asnum.ASN{1, 2}, Source: FeatureRR})
	b.Add(SiblingSet{ASNs: []asnum.ASN{2, 3}, Source: FeatureFavicon})
	first := exportBytes(t, b.BuildSharded(nil, 0))
	second := exportBytes(t, b.BuildSharded(nil, 0))
	if !bytes.Equal(first, second) {
		t.Fatal("repeated BuildSharded calls diverge")
	}
	if !bytes.Equal(first, exportBytes(t, oracleBuild(b, nil))) {
		t.Fatal("BuildSharded(0) diverges from the UnionFind oracle")
	}
}

// TestClusterOfPageIndex forces the two-level index (≥ pageIndexMin
// networks) with ASNs scattered across distant pages, including empty
// pages between occupied ones, and checks hits and misses.
func TestClusterOfPageIndex(t *testing.T) {
	b := NewBuilder()
	var asns []asnum.ASN
	for i := 0; i < pageIndexMin; i++ {
		// Spread across pages: low block, a mid block 3 pages up, and a
		// sparse high block.
		var a asnum.ASN
		switch i % 3 {
		case 0:
			a = asnum.ASN(i + 1)
		case 1:
			a = asnum.ASN(3<<asnPageShift + i)
		default:
			a = asnum.ASN(9<<asnPageShift + i*7)
		}
		asns = append(asns, a)
		b.AddUniverse(a)
	}
	m := b.Build(nil)
	if m.pages == nil {
		t.Fatal("page index not built for a large mapping")
	}
	for _, a := range asns {
		if m.ClusterOf(a) == nil {
			t.Fatalf("ClusterOf(%v) = nil, want a cluster", a)
		}
	}
	for _, miss := range []asnum.ASN{0, 2 << asnPageShift, 5 << asnPageShift, 200 << asnPageShift, asnum.MaxASN} {
		if m.ClusterOf(miss) != nil {
			t.Fatalf("ClusterOf(%v) found a cluster for an unmapped ASN", miss)
		}
	}
}

// TestSizesMemoized: Sizes is computed once at build time — repeated
// calls hand back the same cached slice instead of allocating and
// re-sorting.
func TestSizesMemoized(t *testing.T) {
	b := NewBuilder()
	b.Add(SiblingSet{ASNs: []asnum.ASN{1, 2, 3}})
	b.Add(SiblingSet{ASNs: []asnum.ASN{10, 11}})
	b.AddUniverse(99)
	m := b.Build(nil)
	s1, s2 := m.Sizes(), m.Sizes()
	if &s1[0] != &s2[0] {
		t.Error("Sizes() allocated a fresh slice on the second call")
	}
	for i := 1; i < len(s1); i++ {
		if s1[i] > s1[i-1] {
			t.Fatalf("Sizes() not descending: %v", s1)
		}
	}
	if got := testing.AllocsPerRun(100, func() { m.Sizes() }); got != 0 {
		t.Errorf("Sizes() allocates %v times per call, want 0", got)
	}
}

package snapbin

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
)

// testImage hand-builds a small, internally consistent image: two
// clusters in canonical order with a matching packed index, token
// index, and pre-rendered bodies. statOrgs/statASNs are preset so a
// decoded image DeepEquals this one.
func testImage() *Image {
	clusters := []cluster.Cluster{
		{ID: 0, Name: "Lumen", ASNs: []asnum.ASN{209, 3356, 3549}},
		{ID: 1, Name: "Tiny Net", ASNs: []asnum.ASN{65000}},
	}
	clusters[0].Features[cluster.FeatureOIDW] = true
	clusters[0].Features[cluster.FeatureRR] = true
	clusters[1].Features[cluster.FeatureFavicon] = true
	img := &Image{
		Source:       "test.jsonl",
		LoadedAt:     time.Unix(0, 1723000000000000000),
		HealthStatus: "ok",
		Quarantined:  2,
		HealthDetail: "whois degraded",
		Theta:        0.25,
		MultiASOrgs:  1,
		LargestOrg:   3,
		Histogram:    []Bucket{{Lo: 1, Hi: 1, Orgs: 1}, {Lo: 2, Hi: 2, Orgs: 0}, {Lo: 3, Hi: 4, Orgs: 1}},
		Clusters:     clusters,
		Keys:         []asnum.ASN{209, 3356, 3549, 65000},
		Vals:         []int32{0, 0, 0, 1},
		LowerNames:   []string{"lumen", "tiny net"},
		Tokens:       []string{"lumen", "net", "tiny"},
		Postings:     [][]int32{{0}, {1}, {1}},
		OrgBodies:    [][]byte{[]byte("{\"org\":0}\n"), []byte("{\"org\":1}\n")},
		ASTails:      [][]byte{[]byte(",\"org\":{}}\n"), []byte(",\"org\":{}}\n")},
		statOrgs:     2,
		statASNs:     4,
	}
	return img
}

func marshal(t *testing.T, img *Image) ([]byte, string) {
	t.Helper()
	data, hash, err := Marshal(img)
	if err != nil {
		t.Fatal(err)
	}
	return data, hash
}

// readErrs writes data to a fresh file in dir and loads it through
// both readers — streamed (ReadFileFS) and memory-mapped
// (ReadFileMapped) — returning each reader's error by name.
func readErrs(t *testing.T, dir string, data []byte) map[string]error {
	t.Helper()
	f, err := os.CreateTemp(dir, "snap-*.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, fileErr := ReadFileFS(nil, f.Name())
	_, _, release, mappedErr := ReadFileMapped(f.Name())
	if release != nil {
		release()
	}
	return map[string]error{"file": fileErr, "mapped": mappedErr}
}

func TestRoundTrip(t *testing.T) {
	img := testImage()
	data, hash := marshal(t, img)
	got, gotHash, err := decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotHash != hash {
		t.Fatalf("decode hash %s, Marshal returned %s", gotHash, hash)
	}
	if want := HashImage(img); want != hash {
		t.Fatalf("HashImage %s disagrees with Marshal %s", want, hash)
	}
	if !reflect.DeepEqual(got, img) {
		t.Fatalf("round trip drift:\n got %+v\nwant %+v", got, img)
	}
}

func TestHashExcludesProvenance(t *testing.T) {
	a := testImage()
	b := testImage()
	b.Source = "elsewhere.bin"
	b.LoadedAt = time.Unix(0, 9000000000)
	if HashImage(a) != HashImage(b) {
		t.Fatal("content hash depends on provenance (source/loadedAt)")
	}
	_, hashA := marshal(t, a)
	_, hashB := marshal(t, b)
	if hashA != hashB {
		t.Fatal("encoded hashes differ across provenance-only changes")
	}
	c := testImage()
	c.Clusters[0].Name = "Lumen Technologies"
	if HashImage(c) == HashImage(a) {
		t.Fatal("content change did not change the hash")
	}
}

func TestTypedErrors(t *testing.T) {
	valid, _ := marshal(t, testImage())
	mut := func(f func(d []byte) []byte) []byte {
		d := append([]byte(nil), valid...)
		return f(d)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", valid[:10], ErrTruncated},
		{"bad magic", mut(func(d []byte) []byte { d[0] = 'X'; return d }), ErrBadMagic},
		{"future version", mut(func(d []byte) []byte { d[8] = 99; return d }), ErrVersion},
		{"torn tail", valid[:len(valid)-7], ErrTruncated},
		{"trailing garbage", append(append([]byte(nil), valid...), 0xAB), ErrCorrupt},
		{"flipped hash byte", mut(func(d []byte) []byte { d[24] ^= 0xFF; return d }), ErrHashMismatch},
		{"flipped payload byte", mut(func(d []byte) []byte { d[len(d)-2] ^= 0xFF; return d }), ErrHashMismatch},
		{"wrong section id", mut(func(d []byte) []byte { d[headerSize] = 42; return d }), ErrCorrupt},
		{"shifted section offset", mut(func(d []byte) []byte { d[headerSize+4]++; return d }), ErrCorrupt},
		{"bad section count", mut(func(d []byte) []byte { d[12] = 2; return d }), ErrCorrupt},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for reader, err := range readErrs(t, dir, tc.data) {
				t.Run(reader, func(t *testing.T) {
					if !errors.Is(err, tc.want) {
						t.Fatalf("%s reader = %v, want %v", reader, err, tc.want)
					}
				})
			}
		})
	}
}

// TestEveryTruncationRejected loads every strict prefix of a valid
// artifact through both readers: all must fail with a typed error,
// none may panic.
func TestEveryTruncationRejected(t *testing.T) {
	valid, _ := marshal(t, testImage())
	dir := t.TempDir()
	for i := 0; i < len(valid); i++ {
		for reader, err := range readErrs(t, dir, valid[:i]) {
			if err == nil {
				t.Fatalf("%s reader: prefix of %d/%d bytes decoded successfully", reader, i, len(valid))
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrHashMismatch) {
				t.Fatalf("%s reader: prefix %d: untyped error %v", reader, i, err)
			}
		}
	}
}

// TestCountValidation flips an in-payload count field sky-high and
// re-signs the artifact so the hash check passes: the decoder must
// still refuse via the count-vs-remaining check, without ever
// attempting the 2 GiB allocation the count implies.
func TestCountValidation(t *testing.T) {
	data, _ := marshal(t, testImage())
	entry := func(i, field int) int {
		return int(binary.LittleEndian.Uint64(data[headerSize+i*sectionEntrySize+field:]))
	}
	// The index section is table entry 3; its payload starts with the
	// key count. Claim 2^31-1 keys in a handful of bytes.
	off := entry(3, 4)
	binary.LittleEndian.PutUint32(data[off:], 1<<31-1)
	// Re-sign: the content hash covers sections 2..7, which sit
	// contiguously from the stats section (table entry 1) to EOF.
	sum := sha256.Sum256(data[entry(1, 4):])
	copy(data[24:56], sum[:])
	for reader, err := range readErrs(t, t.TempDir(), data) {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s reader: huge count: %v, want %v", reader, err, ErrCorrupt)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	img := testImage()
	hash, err := WriteFileFS(nil, path, img)
	if err != nil {
		t.Fatal(err)
	}
	got, gotHash, err := ReadFileFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if gotHash != hash || !reflect.DeepEqual(got, img) {
		t.Fatal("ReadFileFS drift after WriteFileFS")
	}
	if !SniffFile(path) {
		t.Fatal("SniffFile misses a snapbin artifact")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

// TestCrashedHalfWriteRejected simulates a writer that died without
// the atomic rename discipline: a half-written file under the
// published name must fail the size/hash check on load.
func TestCrashedHalfWriteRejected(t *testing.T) {
	valid, _ := marshal(t, testImage())
	path := filepath.Join(t.TempDir(), "torn.bin")
	if err := os.WriteFile(path, valid[:len(valid)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadFileFS(nil, path)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn artifact: %v, want %v", err, ErrTruncated)
	}
}

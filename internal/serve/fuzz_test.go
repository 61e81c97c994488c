package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nu-aqualab/borges/internal/cluster"
)

// FuzzLoadSnapshot differentially fuzzes the two binary artifact
// readers behind -snapshot-in and binary /admin/reload: each input is
// written to a file and loaded both buffered (LoadSnapshotFile) and
// memory-mapped (LoadSnapshotFileMapped). The contract under arbitrary
// bytes: both readers return a typed error or a fully self-consistent
// snapshot — never a panic, and never an allocation sized by an
// unvalidated length field (the size cap below would not save us from
// a forged multi-gigabyte count; the decoder's bounds checks must) —
// and they agree on accept/reject and on the content hash. The seed
// corpus is a valid artifact plus the mutations the format is designed
// to reject: truncations, flipped header/hash/payload bytes, and bare
// magic.
func FuzzLoadSnapshot(f *testing.F) {
	var buf bytes.Buffer
	snap, err := NewSnapshot(variantMapping(3, 24), "fuzz")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := WriteSnapshot(&buf, snap); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:63])
	f.Add([]byte("BORGSNAP"))
	f.Add([]byte(""))
	for _, off := range []int{0, 8, 12, 16, 24, 64, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xFF
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound the cost of one fuzz iteration
		}
		path := filepath.Join(t.TempDir(), "fuzz.snapbin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		buffered, errBuffered := LoadSnapshotFile(path)
		mapped, errMapped := LoadSnapshotFileMapped(path)
		if (errBuffered == nil) != (errMapped == nil) {
			t.Fatalf("readers disagree: buffered %v, mapped %v", errBuffered, errMapped)
		}
		if errBuffered != nil {
			return // rejected cleanly — the acceptable outcome
		}
		defer mapped.retire()
		if buffered.ContentHash() != mapped.ContentHash() {
			t.Fatalf("content hash: buffered %s, mapped %s", buffered.ContentHash(), mapped.ContentHash())
		}
		checkLoaded(t, buffered)
		checkLoaded(t, mapped)
	})
}

// checkLoaded asserts a snapshot accepted from arbitrary bytes is
// self-consistent and servable.
func checkLoaded(t *testing.T, snap *Snapshot) {
	t.Helper()
	st := snap.Stats()
	if st.Orgs == 0 || st.ASNs == 0 {
		t.Fatal("loader accepted an empty mapping")
	}
	m := snap.Mapping()
	if st.Orgs != m.NumOrgs() || st.ASNs != m.NumASNs() {
		t.Fatalf("stats (%d orgs, %d asns) disagree with mapping (%d, %d)",
			st.Orgs, st.ASNs, m.NumOrgs(), m.NumASNs())
	}
	for i := range m.Clusters {
		c := &m.Clusters[i]
		for _, a := range c.ASNs {
			hit := snap.Lookup(a)
			if hit == nil || hit != c {
				t.Fatalf("ASN %v misresolved in an accepted snapshot", a)
			}
		}
		if body := snap.OrgBody(c.ID); len(body) == 0 {
			t.Fatalf("cluster %d accepted without a rendered body", c.ID)
		}
	}
	if snap.LoadMode() != LoadModeBinary || snap.ContentHash() == "" {
		t.Fatalf("accepted snapshot reports mode %q hash %q", snap.LoadMode(), snap.ContentHash())
	}
}

// FuzzLoadMapping fuzzes the snapshot load path a mapping JSONL file
// given to -snapshot-in (and every /admin/reload of one) flows through: cluster.ReadJSONL
// followed by snapshot construction. The contract under arbitrary
// bytes: the loader parses or fails cleanly (no panic), and anything
// it accepts must index into a self-consistent, servable snapshot —
// the same validate-then-swap guarantee hot reload relies on. The
// seed corpus includes a torn-tail file (a crash mid-append), the
// failure mode the cache layer's disk tier also has to survive.
func FuzzLoadMapping(f *testing.F) {
	var buf bytes.Buffer
	if err := cluster.WriteJSONL(&buf, variantMapping(3, 12)); err != nil {
		f.Fatal(err)
	}
	full := buf.String()
	f.Add([]byte(full))
	// Torn tail: complete first line, second line cut mid-record.
	if lines := strings.SplitAfter(full, "\n"); len(lines) >= 2 && len(lines[1]) > 2 {
		f.Add([]byte(lines[0] + lines[1][:len(lines[1])/2]))
	}
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"org":0,"asns":[]}`))
	f.Add([]byte(`{"org":0,"name":"x","asns":[1,2],"features":["BOGUS"]}`))
	f.Add([]byte(`{"org":0,"asns":[4294967295,0]}`))
	f.Add([]byte("not json at all"))
	f.Add([]byte(`{"org":0,"asns":[1,1,1]}` + "\n" + `{"org":1,"asns":[1,2]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bound the cost of one fuzz iteration
		}
		m, err := cluster.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly — the acceptable outcome
		}
		snap, err := NewSnapshot(m, "fuzz")
		if err != nil {
			// Parsed but unservable (e.g. empty) — also a clean
			// refusal: reload keeps the old snapshot in that case.
			return
		}
		st := snap.Stats()
		if st.Orgs != m.NumOrgs() || st.ASNs != m.NumASNs() {
			t.Fatalf("snapshot stats (%d orgs, %d asns) disagree with mapping (%d, %d)",
				st.Orgs, st.ASNs, m.NumOrgs(), m.NumASNs())
		}
		if st.Orgs == 0 || st.ASNs == 0 {
			t.Fatal("NewSnapshot accepted an empty mapping")
		}
		for i := range m.Clusters {
			c := &m.Clusters[i]
			for _, a := range c.ASNs {
				hit := snap.Lookup(a)
				if hit == nil {
					t.Fatalf("ASN %v unmapped in its own snapshot", a)
				}
				if hit != c {
					t.Fatalf("ASN %v resolves to cluster %d, not its owner %d", a, hit.ID, c.ID)
				}
			}
		}
	})
}

package snapbin

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestWriterHashMatchesReader: the hash the section writer returns is
// the pure content hash of the image, and it is exactly the hash both
// readers verify on load. The fleet compares ContentHash of built
// snapshots against published artifact hashes, so the three must agree.
func TestWriterHashMatchesReader(t *testing.T) {
	img := testImage()
	want := HashImage(img)
	if _, hash := marshal(t, img); hash != want {
		t.Fatalf("Marshal hash %s, HashImage %s", hash, want)
	}
	path := filepath.Join(t.TempDir(), "snap.bin")
	hash, err := WriteFileFS(nil, path, img)
	if err != nil {
		t.Fatal(err)
	}
	if hash != want {
		t.Fatalf("WriteFileFS hash %s, HashImage %s", hash, want)
	}
	if _, got, err := ReadFileFS(nil, path); err != nil || got != want {
		t.Fatalf("ReadFileFS verified %s (%v), want %s", got, err, want)
	}
	_, got, release, err := ReadFileMapped(path)
	if release != nil {
		release()
	}
	if err != nil || got != want {
		t.Fatalf("ReadFileMapped verified %s (%v), want %s", got, err, want)
	}
}

// TestWriterSectionOrder: out-of-order or premature finish misuse fails
// loudly instead of writing a structurally broken artifact.
func TestWriterSectionOrder(t *testing.T) {
	w := newWriter(io.Discard)
	if _, err := w.section(secStats); err == nil {
		t.Fatal("section accepted a skipped provenance section")
	}
	if _, _, err := w.finish(); err == nil {
		t.Fatal("finish succeeded with missing sections")
	}
}

// TestReadFileMapped: the mapped load decodes to the same image and
// hash as the buffered one; bodies alias the mapping until release.
func TestReadFileMapped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.bin")
	img := testImage()
	wantHash, err := WriteFileFS(nil, path, img)
	if err != nil {
		t.Fatal(err)
	}
	got, hash, release, err := ReadFileMapped(path)
	if err != nil {
		t.Fatalf("ReadFileMapped: %v", err)
	}
	if hash != wantHash {
		t.Fatalf("mapped hash %s, want %s", hash, wantHash)
	}
	if !reflect.DeepEqual(got, img) {
		t.Fatal("mapped image drifts from the written one")
	}
	if mmapSupported {
		if release == nil {
			t.Fatal("mapped load returned no release function")
		}
		// The mapping must survive the path disappearing: the ring
		// prunes artifacts that a serving snapshot may still map.
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if string(got.OrgBodies[0]) != "{\"org\":0}\n" {
			t.Fatal("mapped body unreadable after unlink")
		}
		release()
	} else if release != nil {
		t.Fatal("fallback load returned a release function")
	}
}

// TestReadFileMappedRejectsCorrupt: the mapped path verifies exactly
// like the buffered one — a flipped payload byte fails the hash check
// and the mapping is released.
func TestReadFileMappedRejectsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.bin")
	if _, err := WriteFileFS(nil, path, testImage()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadFileMapped(path); !errors.Is(err, ErrHashMismatch) {
		t.Fatalf("corrupt mapped artifact: %v, want %v", err, ErrHashMismatch)
	}
}

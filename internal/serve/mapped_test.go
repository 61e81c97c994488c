package serve

import (
	"context"
	"net/http"
	"path/filepath"
	"testing"

	"github.com/nu-aqualab/borges/internal/faultinject"
	"github.com/nu-aqualab/borges/internal/vfs"
)

// writeTestArtifact persists the canonical test snapshot as a binary
// artifact and returns its path plus the in-memory original for
// equivalence checks.
func writeTestArtifact(t *testing.T) (string, *Snapshot) {
	t.Helper()
	orig := mustSnapshot(t, testMapping(t))
	path := filepath.Join(t.TempDir(), "snapshot.snapbin")
	if _, err := WriteSnapshotFile(path, orig); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	return path, orig
}

// TestLoadSnapshotFileMappedEquivalence: a mapped load must be
// indistinguishable from a buffered one in every served byte, and its
// backing must follow the documented lifecycle — pins hold the mapping
// open, retire drains it.
func TestLoadSnapshotFileMappedEquivalence(t *testing.T) {
	path, orig := writeTestArtifact(t)
	snap, err := LoadSnapshotFileMapped(path)
	if err != nil {
		t.Fatalf("LoadSnapshotFileMapped: %v", err)
	}
	snapEqual(t, orig, snap)
	if !snap.MemoryMapped() {
		t.Skip("platform cannot mmap; buffered fallback already verified equivalent")
	}

	// A pin taken before retirement keeps the body bytes readable
	// after it; the mapping unmaps only when the pin drops.
	if !snap.Pin() {
		t.Fatal("Pin failed on a live mapped snapshot")
	}
	snap.retire()
	if body, ok := snap.AppendASBody(nil, 3356); !ok || len(body) == 0 {
		t.Fatal("pinned snapshot lost its body bytes after retire")
	}
	snap.Unpin()
	if snap.Pin() {
		t.Fatal("Pin succeeded after the backing drained to zero")
	}
}

// TestLoadSnapshotFileMappedFSFallback: any filesystem other than the
// real one (here, a fault-injection wrapper) must take the buffered
// path — mmap would bypass the vfs seam the chaos suites rely on.
func TestLoadSnapshotFileMappedFSFallback(t *testing.T) {
	path, orig := writeTestArtifact(t)
	ffs := faultinject.NewFS(vfs.OS, filepath.Dir(path), faultinject.FSConfig{})
	snap, err := LoadSnapshotFileMappedFS(ffs, path)
	if err != nil {
		t.Fatalf("LoadSnapshotFileMappedFS: %v", err)
	}
	if snap.MemoryMapped() {
		t.Fatal("non-OS filesystem produced a memory-mapped snapshot")
	}
	snapEqual(t, orig, snap)
}

// TestMappedSwapRetiresBacking: swapping a mapped snapshot out must
// retire its backing once in-flight pins drain, while the replacement
// keeps serving the same answers.
func TestMappedSwapRetiresBacking(t *testing.T) {
	path, _ := writeTestArtifact(t)
	old, err := LoadSnapshotFileMapped(path)
	if err != nil {
		t.Fatalf("LoadSnapshotFileMapped: %v", err)
	}
	if !old.MemoryMapped() {
		t.Skip("platform cannot mmap")
	}
	srv, err := NewServer(old, Options{Source: SnapshotFileSourceMapped(path)})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	rec := do(t, srv, http.MethodGet, "/v1/as/3356", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/as/3356 before swap: %d %s", rec.Code, rec.Body.String())
	}
	next, err := srv.Reload(context.Background())
	if err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if next == old {
		t.Fatal("reload did not produce a new snapshot")
	}
	if old.Pin() {
		t.Fatal("swapped-out snapshot's backing did not drain")
	}
	if !next.MemoryMapped() {
		t.Fatal("reloaded snapshot is not memory-mapped")
	}
	rec = do(t, srv, http.MethodGet, "/v1/as/3356", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/as/3356 after swap: %d %s", rec.Code, rec.Body.String())
	}
}

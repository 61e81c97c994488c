package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// poisonedArtifact encodes snap as a snapbin artifact, corrupts the
// first byte of every pre-rendered org body, re-signs the content
// hash, and writes the result to a temp file whose path it returns —
// modeling an artifact altered after hashing (a buggy writer, a
// tampering proxy). Every structural check passes: magic, version,
// size, section table, the re-signed hash, and cluster.Restore's
// index↔membership verification. Only replaying live traffic against
// the candidate can catch it, which is exactly the canary's job.
func poisonedArtifact(t testing.TB, snap *Snapshot) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	data := buf.Bytes()
	// Walk the section table: 7 entries of 20 bytes at offset 64
	// {id u32, offset u64, length u64}.
	type span struct{ off, length uint64 }
	sections := make(map[uint32]span, 7)
	for i := 0; i < 7; i++ {
		e := data[64+20*i:]
		id := binary.LittleEndian.Uint32(e)
		sections[id] = span{binary.LittleEndian.Uint64(e[4:]), binary.LittleEndian.Uint64(e[12:])}
	}
	// Org bodies (section 6) payload: count u32, count lengths u32,
	// then the blobs contiguously. Flip each blob's opening byte.
	bodies := sections[6]
	n := binary.LittleEndian.Uint32(data[bodies.off:])
	blob := bodies.off + 4 + 4*uint64(n)
	for i := uint32(0); i < n; i++ {
		l := binary.LittleEndian.Uint32(data[bodies.off+4+4*uint64(i):])
		if l > 0 {
			data[blob] ^= 0xff
		}
		blob += uint64(l)
	}
	// Re-sign: the content hash covers sections 2..7 in order.
	h := sha256.New()
	for _, id := range []uint32{2, 3, 4, 5, 6, 7} {
		s := sections[id]
		h.Write(data[s.off : s.off+s.length])
	}
	copy(data[24:56], h.Sum(nil))
	path := filepath.Join(t.TempDir(), "poisoned.snapbin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCanaryAcceptsValidSnapshot: every healthy snapshot this repo
// builds — full, binary round-trip, small and large — passes the
// default canary.
func TestCanaryAcceptsValidSnapshot(t *testing.T) {
	for _, m := range []*Snapshot{
		mustSnapshot(t, testMapping(t)),
		mustSnapshot(t, variantMapping(3, 512)),
	} {
		if err := canaryCheck(m, nil, CanaryConfig{}); err != nil {
			t.Fatalf("valid snapshot rejected: %v", err)
		}
	}
	// And a binary round-trip of one.
	path := filepath.Join(t.TempDir(), "snap.snapbin")
	snap := mustSnapshot(t, variantMapping(1, 256))
	if _, err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := canaryCheck(loaded, snap, CanaryConfig{}); err != nil {
		t.Fatalf("binary round-trip rejected: %v", err)
	}
}

// TestCanaryRejectsPoisonedBodies: a hash-valid artifact with corrupt
// pre-rendered bodies decodes cleanly but dies at the canary with the
// typed error.
func TestCanaryRejectsPoisonedBodies(t *testing.T) {
	snap := mustSnapshot(t, variantMapping(2, 128))
	poisoned, err := LoadSnapshotFile(poisonedArtifact(t, snap))
	if err != nil {
		t.Fatalf("poisoned artifact must decode (it is re-signed): %v", err)
	}
	err = canaryCheck(poisoned, snap, CanaryConfig{})
	if !errors.Is(err, ErrCanaryRejected) {
		t.Fatalf("canaryCheck = %v, want ErrCanaryRejected", err)
	}
}

// TestCanaryThetaTolerance: the opt-in θ gate rejects a drift past the
// tolerance and accepts one within it.
func TestCanaryThetaTolerance(t *testing.T) {
	prev := mustSnapshot(t, variantMapping(0, 256)) // runs of 2 ASNs
	next := mustSnapshot(t, variantMapping(4, 256)) // runs of 6 ASNs: very different θ
	err := canaryCheck(next, prev, CanaryConfig{ThetaTolerance: 1e-9})
	if !errors.Is(err, ErrCanaryRejected) {
		t.Fatalf("theta drift accepted: %v", err)
	}
	if err := canaryCheck(next, prev, CanaryConfig{ThetaTolerance: 10}); err != nil {
		t.Fatalf("theta within tolerance rejected: %v", err)
	}
	// Default config has no θ gate: the same swing passes.
	if err := canaryCheck(next, prev, CanaryConfig{}); err != nil {
		t.Fatalf("default config must not gate theta: %v", err)
	}
}

// TestCanaryDisable: Disable promotes anything, even the poisoned
// artifact.
func TestCanaryDisable(t *testing.T) {
	snap := mustSnapshot(t, variantMapping(2, 128))
	poisoned, err := LoadSnapshotFile(poisonedArtifact(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	if err := canaryCheck(poisoned, snap, CanaryConfig{Disable: true}); err != nil {
		t.Fatalf("disabled canary must accept: %v", err)
	}
}

// TestReloadCanaryGate: a poisoned candidate arriving through the full
// reload path is refused with 422, the serving snapshot is untouched,
// and the refusal is counted.
func TestReloadCanaryGate(t *testing.T) {
	good := mustSnapshot(t, variantMapping(1, 128))
	poisoned := poisonedArtifact(t, mustSnapshot(t, variantMapping(2, 128)))
	srv, err := NewServer(good, Options{Source: SnapshotFileSource(poisoned)})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/admin/reload", nil))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("reload status = %d, want 422 (body: %s)", rec.Code, rec.Body.String())
	}
	if srv.Snapshot() != good {
		t.Fatal("serving snapshot changed despite canary rejection")
	}
	if n := srv.Metrics().CanaryRejects(); n != 1 {
		t.Fatalf("CanaryRejects = %d, want 1", n)
	}
	if ok, failed := srv.Metrics().Reloads(); ok != 0 || failed != 1 {
		t.Fatalf("Reloads = (%d ok, %d failed), want (0, 1)", ok, failed)
	}
}

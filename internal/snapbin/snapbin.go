// Package snapbin defines the versioned binary snapshot format for
// serving artifacts: a single self-describing file holding everything
// internal/serve pre-computes at snapshot-build time — the packed
// ASN→cluster index, cluster membership and interned names, the
// token index with sorted posting lists, the pre-rendered /v1/org
// bodies and /v1/as tails, and the θ/size-histogram statistics —
// so a daemon cold-starts by decoding large flat sections instead of
// re-parsing JSONL, replaying a union-find, re-tokenizing every name,
// and re-encoding every response body.
//
// # File layout
//
// All integers are little-endian.
//
//	fixed header (64 bytes):
//	  [ 0: 8]  magic "BORGSNAP"
//	  [ 8:12]  format version (uint32, currently 1)
//	  [12:16]  section count (uint32)
//	  [16:24]  total file size (uint64) — cheap truncation check
//	  [24:56]  SHA-256 content hash (see below)
//	  [56:64]  reserved, zero
//	section table: count × 20 bytes {id uint32, offset uint64, length uint64}
//	section payloads, contiguous, in table order
//
// Sections must appear with strictly ascending IDs, contiguous
// payloads (each offset is the previous end), and the last payload
// ending exactly at the file size. Version 1 requires exactly the
// sections declared below.
//
// # Content hash
//
// The hash covers the payload bytes of every section except
// provenance, in table order. Provenance (source label, build time)
// is operational metadata: two encodings of the same logical snapshot
// — built on different machines, at different times, from a full
// build or a delta patch — produce the same content hash, which is
// what lets a replica fleet check cross-replica consistency and lets
// the delta-reload guard assert byte-level equivalence with a
// from-scratch build. The hash also rejects torn or corrupted
// artifacts: a crashed half-written file fails the size or hash check
// before anything is served.
//
// Decoding never trusts a length field before validating it against
// the bytes actually present, so truncated or adversarial inputs
// return typed errors instead of panicking or over-allocating.
package snapbin

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/vfs"
)

// Magic identifies a snapbin artifact; it is the first 8 bytes of
// every file and what SniffFile keys on.
const Magic = "BORGSNAP"

// Version is the format version this package writes and accepts.
const Version = 1

// Section IDs, in file order.
const (
	secProvenance = 1 // source label, build time (unhashed)
	secStats      = 2 // θ, histogram, health
	secClusters   = 3 // membership, names, lowercase names, features
	secIndex      = 4 // packed ASN→cluster index
	secTokens     = 5 // sorted tokens + posting lists
	secOrgBodies  = 6 // pre-rendered /v1/org responses
	secASTails    = 7 // pre-rendered /v1/as tails
)

var sectionIDs = []uint32{
	secProvenance, secStats, secClusters, secIndex, secTokens, secOrgBodies, secASTails,
}

const (
	headerSize       = 64
	sectionEntrySize = 20
)

// Typed decode failures. Every decode error wraps exactly one of
// these, so callers (and the fuzz harness) can distinguish a torn
// file from a corrupted one from a format mismatch.
var (
	// ErrBadMagic: the file does not start with Magic.
	ErrBadMagic = errors.New("snapbin: not a snapshot artifact (bad magic)")
	// ErrVersion: the artifact declares a format version this build
	// does not speak.
	ErrVersion = errors.New("snapbin: unsupported format version")
	// ErrTruncated: the file is shorter than its header claims — the
	// signature of a crashed half-written artifact.
	ErrTruncated = errors.New("snapbin: truncated artifact")
	// ErrCorrupt: structural damage — a malformed section table, a
	// length field pointing outside its section, an out-of-range ID.
	ErrCorrupt = errors.New("snapbin: corrupt artifact")
	// ErrHashMismatch: the content hash does not cover the payload
	// bytes present; the artifact was altered or torn mid-section.
	ErrHashMismatch = errors.New("snapbin: content hash mismatch")
)

// Bucket mirrors one bar of the serving layer's organization-size
// histogram.
type Bucket struct {
	Lo, Hi, Orgs int
}

// Image is the portable, fully-decoded form of a serving snapshot —
// every field internal/serve needs to reconstruct its Snapshot
// without re-tokenizing or re-rendering. snapbin deliberately does
// not import the serve package; serve converts in both directions.
type Image struct {
	// Provenance (excluded from the content hash).
	Source   string
	LoadedAt time.Time

	// Health, as recorded by the producing run.
	HealthStatus string
	Quarantined  int
	HealthDetail string

	// Statistics.
	Theta       float64
	MultiASOrgs int
	LargestOrg  int
	Histogram   []Bucket

	// Mapping: clusters in canonical order plus the packed index.
	Clusters []cluster.Cluster
	Keys     []asnum.ASN
	Vals     []int32

	// Search index: LowerNames[i] is the lowercase display name of
	// cluster i; Tokens is sorted ascending with Postings parallel.
	LowerNames []string
	Tokens     []string
	Postings   [][]int32

	// Pre-rendered response bytes per cluster.
	OrgBodies [][]byte
	ASTails   [][]byte

	// statOrgs/statASNs are the counts the stats section declared,
	// held for the cross-section consistency check after decode.
	statOrgs, statASNs int
}

// sectionWriter serializes one section's payload.
type sectionWriter func(w io.Writer, img *Image) error

var sectionWriters = map[uint32]sectionWriter{
	secProvenance: writeProvenance,
	secStats:      writeStats,
	secClusters:   writeClusters,
	secIndex:      writeIndex,
	secTokens:     writeTokens,
	secOrgBodies:  func(w io.Writer, img *Image) error { return writeBlobs(w, img.OrgBodies) },
	secASTails:    func(w io.Writer, img *Image) error { return writeBlobs(w, img.ASTails) },
}

func putU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func putU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func putString(w io.Writer, s string) error {
	if err := putU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func writeProvenance(w io.Writer, img *Image) error {
	if err := putString(w, img.Source); err != nil {
		return err
	}
	return putU64(w, uint64(img.LoadedAt.UnixNano()))
}

func writeStats(w io.Writer, img *Image) error {
	if err := putU64(w, math.Float64bits(img.Theta)); err != nil {
		return err
	}
	for _, v := range []uint32{
		uint32(len(img.Clusters)), uint32(len(img.Keys)),
		uint32(img.MultiASOrgs), uint32(img.LargestOrg),
	} {
		if err := putU32(w, v); err != nil {
			return err
		}
	}
	if err := putString(w, img.HealthStatus); err != nil {
		return err
	}
	if err := putU32(w, uint32(img.Quarantined)); err != nil {
		return err
	}
	if err := putString(w, img.HealthDetail); err != nil {
		return err
	}
	if err := putU32(w, uint32(len(img.Histogram))); err != nil {
		return err
	}
	for _, b := range img.Histogram {
		for _, v := range []uint32{uint32(b.Lo), uint32(b.Hi), uint32(b.Orgs)} {
			if err := putU32(w, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeClusters lays membership out columnar — counts, features,
// name lengths, name bytes, lowercase variants, then one flat ASN
// pool — so the decoder's inner loops run over homogeneous runs.
func writeClusters(w io.Writer, img *Image) error {
	if err := putU32(w, uint32(len(img.Clusters))); err != nil {
		return err
	}
	for i := range img.Clusters {
		if err := putU32(w, uint32(len(img.Clusters[i].ASNs))); err != nil {
			return err
		}
	}
	feats := make([]byte, len(img.Clusters))
	for i := range img.Clusters {
		var b byte
		for f := 0; f < cluster.NumFeatures; f++ {
			if img.Clusters[i].Features[f] {
				b |= 1 << f
			}
		}
		feats[i] = b
	}
	if _, err := w.Write(feats); err != nil {
		return err
	}
	for i := range img.Clusters {
		if err := putString(w, img.Clusters[i].Name); err != nil {
			return err
		}
	}
	for _, s := range img.LowerNames {
		if err := putString(w, s); err != nil {
			return err
		}
	}
	for i := range img.Clusters {
		for _, a := range img.Clusters[i].ASNs {
			if err := putU32(w, uint32(a)); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeIndex(w io.Writer, img *Image) error {
	if err := putU32(w, uint32(len(img.Keys))); err != nil {
		return err
	}
	buf := make([]byte, 4*len(img.Keys))
	for i, a := range img.Keys {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(a))
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for i, v := range img.Vals {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	_, err := w.Write(buf[:4*len(img.Vals)])
	return err
}

func writeTokens(w io.Writer, img *Image) error {
	if err := putU32(w, uint32(len(img.Tokens))); err != nil {
		return err
	}
	for _, tok := range img.Tokens {
		if err := putString(w, tok); err != nil {
			return err
		}
	}
	for _, ids := range img.Postings {
		if err := putU32(w, uint32(len(ids))); err != nil {
			return err
		}
		for _, id := range ids {
			if err := putU32(w, uint32(id)); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeBlobs(w io.Writer, blobs [][]byte) error {
	if err := putU32(w, uint32(len(blobs))); err != nil {
		return err
	}
	for _, b := range blobs {
		if err := putU32(w, uint32(len(b))); err != nil {
			return err
		}
	}
	for _, b := range blobs {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// HashImage computes the content hash of an image: the hash the
// encoded artifact would carry. Provenance is excluded by
// construction, so the hash is a pure function of the snapshot's
// logical content.
func HashImage(img *Image) string {
	h := sha256.New()
	for _, id := range sectionIDs {
		if id == secProvenance {
			continue
		}
		// Writers only fail when the sink fails; a hash never does.
		_ = sectionWriters[id](h, img)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// WriteFileFS atomically persists the artifact at path on fsys (nil
// means the real disk): the bytes land in a temporary file in the same
// directory, are fsynced, and only then renamed over the destination —
// a crash mid-write leaves either the previous artifact or a stray
// temp file, never a torn artifact under the published name. The
// directory entry is fsynced after the rename so the publish itself
// survives power loss. The filesystem is the seam the disk-chaos
// suites use to tear writes and fail fsyncs deterministically; a
// faulted write never promotes.
func WriteFileFS(fsys vfs.FS, path string, img *Image) (string, error) {
	fsys = vfs.Or(fsys)
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return "", err
	}
	tmp := f.Name()
	defer func() {
		if tmp != "" {
			f.Close()
			fsys.Remove(tmp)
		}
	}()
	header, hash, err := encode(f, img)
	if err != nil {
		return "", err
	}
	if _, err := f.WriteAt(header, 0); err != nil {
		return "", err
	}
	if err := f.Sync(); err != nil {
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return "", err
	}
	tmp = "" // renamed; nothing to clean up
	_ = fsys.SyncDir(dir)
	return hash, nil
}

// reader is a bounds-checked cursor over one section's payload. Every
// length it returns has already been proven to fit in the remaining
// bytes, so callers can allocate without an OOM risk from adversarial
// counts.
type reader struct {
	buf []byte
	pos int
	sec uint32
}

func (r *reader) fail(format string, args ...any) error {
	return fmt.Errorf("%w: section %d: %s", ErrCorrupt, r.sec, fmt.Sprintf(format, args...))
}

func (r *reader) remaining() int { return len(r.buf) - r.pos }

func (r *reader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, r.fail("truncated uint32 at offset %d", r.pos)
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, r.fail("truncated uint64 at offset %d", r.pos)
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v, nil
}

// count reads an element count and validates count*elemSize against
// the remaining payload before the caller allocates.
func (r *reader) count(elemSize int) (int, error) {
	v, err := r.u32()
	if err != nil {
		return 0, err
	}
	n := int(v)
	if n < 0 || elemSize > 0 && n > r.remaining()/elemSize {
		return 0, r.fail("count %d exceeds %d remaining bytes", n, r.remaining())
	}
	return n, nil
}

// bytes returns the next n raw bytes as a subslice (no copy).
func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, r.fail("%d bytes requested, %d remaining", n, r.remaining())
	}
	b := r.buf[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *reader) str() (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	b, err := r.bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *reader) done() error {
	if r.pos != len(r.buf) {
		return r.fail("%d trailing bytes", r.remaining())
	}
	return nil
}

// sectionSpan is one validated section-table entry.
type sectionSpan struct {
	id          uint32
	off, length uint64
}

// frame is an artifact's validated header: the declared size (proven
// equal to the real size), the end of the section table, and the
// content hash the payloads must reproduce. Both readers — streaming
// off a file and decoding a mapped buffer — validate through it.
type frame struct {
	size, tableEnd uint64
	wantSum        []byte
}

// parseFrame validates the fixed 64-byte header against the
// artifact's real length, before any declared size is trusted for an
// allocation. head holds as many leading bytes as were available.
func parseFrame(head []byte, actual uint64) (frame, error) {
	if len(head) < headerSize {
		return frame{}, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(head), headerSize)
	}
	if string(head[:8]) != Magic {
		return frame{}, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(head[8:]); v != Version {
		return frame{}, fmt.Errorf("%w: file declares version %d, this build speaks %d", ErrVersion, v, Version)
	}
	if count := binary.LittleEndian.Uint32(head[12:]); int(count) != len(sectionIDs) {
		return frame{}, fmt.Errorf("%w: %d sections declared, version %d has %d", ErrCorrupt, count, Version, len(sectionIDs))
	}
	size := binary.LittleEndian.Uint64(head[16:])
	if size > actual {
		return frame{}, fmt.Errorf("%w: header declares %d bytes, file has %d", ErrTruncated, size, actual)
	}
	if size < actual {
		return frame{}, fmt.Errorf("%w: %d bytes beyond the declared size %d", ErrCorrupt, actual-size, size)
	}
	tableEnd := uint64(headerSize + sectionEntrySize*len(sectionIDs))
	if tableEnd > size {
		return frame{}, fmt.Errorf("%w: section table overruns file", ErrTruncated)
	}
	return frame{size: size, tableEnd: tableEnd, wantSum: head[24:56:56]}, nil
}

// spans validates the section table against the contiguous-layout
// invariants: canonical IDs in order, each offset the previous end, and
// the last payload ending exactly at the declared size.
func (f frame) spans(table []byte) ([]sectionSpan, error) {
	spans := make([]sectionSpan, len(sectionIDs))
	next := f.tableEnd
	for i := range spans {
		entry := table[sectionEntrySize*i:]
		id := binary.LittleEndian.Uint32(entry[0:])
		off := binary.LittleEndian.Uint64(entry[4:])
		length := binary.LittleEndian.Uint64(entry[12:])
		if id != sectionIDs[i] {
			return nil, fmt.Errorf("%w: section %d has id %d, want %d", ErrCorrupt, i, id, sectionIDs[i])
		}
		if off != next || length > f.size-off {
			return nil, fmt.Errorf("%w: section %d spans [%d,%d+%d) outside contiguous layout", ErrCorrupt, id, off, off, length)
		}
		spans[i] = sectionSpan{id: id, off: off, length: length}
		next = off + length
	}
	if next != f.size {
		return nil, fmt.Errorf("%w: sections end at %d, file size is %d", ErrCorrupt, next, f.size)
	}
	return spans, nil
}

// decode checks the digest of the hashed payloads against the header,
// then decodes every section of data.
func (f frame) decode(spans []sectionSpan, data, sum []byte) (*Image, string, error) {
	if string(sum) != string(f.wantSum) {
		return nil, "", ErrHashMismatch
	}
	img, err := decodeSections(spans, data)
	if err != nil {
		return nil, "", err
	}
	return img, hex.EncodeToString(sum), nil
}

// decodeSections runs every section decoder over its span of data and
// cross-checks the result. The content hash must already have been
// verified by the caller.
func decodeSections(spans []sectionSpan, data []byte) (*Image, error) {
	img := &Image{}
	for _, sp := range spans {
		r := &reader{buf: data[sp.off : sp.off+sp.length : sp.off+sp.length], sec: sp.id}
		var err error
		switch sp.id {
		case secProvenance:
			err = readProvenance(r, img)
		case secStats:
			err = readStats(r, img)
		case secClusters:
			err = readClusters(r, img)
		case secIndex:
			err = readIndex(r, img)
		case secTokens:
			err = readTokens(r, img)
		case secOrgBodies:
			img.OrgBodies, err = readBlobs(r)
		case secASTails:
			img.ASTails, err = readBlobs(r)
		}
		if err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
	}
	if err := crossCheck(img); err != nil {
		return nil, err
	}
	return img, nil
}

// decode parses an artifact held fully in memory — the mapped read
// path — and returns the image plus its verified content hash.
// Pre-rendered bodies are returned as zero-copy subslices of data, so
// the caller keeps data alive for the image's lifetime: bodies serve
// straight off the page cache and decoding allocates only the
// index-sized sections.
func decode(data []byte) (*Image, string, error) {
	f, err := parseFrame(data, uint64(len(data)))
	if err != nil {
		return nil, "", err
	}
	spans, err := f.spans(data[headerSize:f.tableEnd])
	if err != nil {
		return nil, "", err
	}
	digest := sha256.New()
	for _, sp := range spans {
		if sp.id != secProvenance {
			digest.Write(data[sp.off : sp.off+sp.length])
		}
	}
	return f.decode(spans, data, digest.Sum(nil))
}

func readProvenance(r *reader, img *Image) error {
	var err error
	if img.Source, err = r.str(); err != nil {
		return err
	}
	ns, err := r.u64()
	if err != nil {
		return err
	}
	img.LoadedAt = time.Unix(0, int64(ns))
	return nil
}

func readStats(r *reader, img *Image) error {
	bits, err := r.u64()
	if err != nil {
		return err
	}
	img.Theta = math.Float64frombits(bits)
	orgs, err := r.u32()
	if err != nil {
		return err
	}
	asns, err := r.u32()
	if err != nil {
		return err
	}
	// The counts are cross-checked against the cluster and index
	// sections once every section has decoded.
	img.statOrgs, img.statASNs = int(orgs), int(asns)
	multi, err := r.u32()
	if err != nil {
		return err
	}
	largest, err := r.u32()
	if err != nil {
		return err
	}
	img.MultiASOrgs, img.LargestOrg = int(multi), int(largest)
	if img.HealthStatus, err = r.str(); err != nil {
		return err
	}
	q, err := r.u32()
	if err != nil {
		return err
	}
	img.Quarantined = int(q)
	if img.HealthDetail, err = r.str(); err != nil {
		return err
	}
	nb, err := r.count(12)
	if err != nil {
		return err
	}
	img.Histogram = make([]Bucket, nb)
	for i := range img.Histogram {
		lo, err := r.u32()
		if err != nil {
			return err
		}
		hi, err := r.u32()
		if err != nil {
			return err
		}
		orgs, err := r.u32()
		if err != nil {
			return err
		}
		img.Histogram[i] = Bucket{Lo: int(lo), Hi: int(hi), Orgs: int(orgs)}
	}
	return nil
}

func readClusters(r *reader, img *Image) error {
	n, err := r.count(4)
	if err != nil {
		return err
	}
	counts := make([]uint32, n)
	total := 0
	for i := range counts {
		c, err := r.u32()
		if err != nil {
			return err
		}
		counts[i] = c
		total += int(c)
	}
	featBytes, err := r.bytes(n)
	if err != nil {
		return err
	}
	img.Clusters = make([]cluster.Cluster, n)
	for i := range img.Clusters {
		img.Clusters[i].ID = i
		for f := 0; f < cluster.NumFeatures; f++ {
			img.Clusters[i].Features[f] = featBytes[i]&(1<<f) != 0
		}
	}
	for i := range img.Clusters {
		if img.Clusters[i].Name, err = r.str(); err != nil {
			return err
		}
	}
	img.LowerNames = make([]string, n)
	for i := range img.LowerNames {
		if img.LowerNames[i], err = r.str(); err != nil {
			return err
		}
	}
	if total > r.remaining()/4 {
		return r.fail("ASN pool needs %d entries, %d bytes remain", total, r.remaining())
	}
	pool := make([]asnum.ASN, total)
	raw, err := r.bytes(4 * total)
	if err != nil {
		return err
	}
	for i := range pool {
		pool[i] = asnum.ASN(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	off := 0
	for i := range img.Clusters {
		c := int(counts[i])
		img.Clusters[i].ASNs = pool[off : off+c : off+c]
		off += c
	}
	return nil
}

func readIndex(r *reader, img *Image) error {
	n, err := r.count(8)
	if err != nil {
		return err
	}
	raw, err := r.bytes(8 * n)
	if err != nil {
		return err
	}
	img.Keys = make([]asnum.ASN, n)
	img.Vals = make([]int32, n)
	for i := 0; i < n; i++ {
		img.Keys[i] = asnum.ASN(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	vals := raw[4*n:]
	for i := 0; i < n; i++ {
		img.Vals[i] = int32(binary.LittleEndian.Uint32(vals[4*i:]))
	}
	return nil
}

func readTokens(r *reader, img *Image) error {
	n, err := r.count(5) // each token: length prefix + ≥0 bytes + posting count
	if err != nil {
		return err
	}
	img.Tokens = make([]string, n)
	for i := range img.Tokens {
		if img.Tokens[i], err = r.str(); err != nil {
			return err
		}
		if i > 0 && img.Tokens[i-1] >= img.Tokens[i] {
			return r.fail("tokens not strictly ascending at %d", i)
		}
	}
	img.Postings = make([][]int32, n)
	for i := range img.Postings {
		c, err := r.count(4)
		if err != nil {
			return err
		}
		raw, err := r.bytes(4 * c)
		if err != nil {
			return err
		}
		ids := make([]int32, c)
		for j := range ids {
			ids[j] = int32(binary.LittleEndian.Uint32(raw[4*j:]))
		}
		img.Postings[i] = ids
	}
	return nil
}

func readBlobs(r *reader) ([][]byte, error) {
	n, err := r.count(4)
	if err != nil {
		return nil, err
	}
	lens := make([]uint32, n)
	var total uint64
	for i := range lens {
		l, err := r.u32()
		if err != nil {
			return nil, err
		}
		lens[i] = l
		total += uint64(l)
	}
	if total > uint64(r.remaining()) {
		return nil, r.fail("blobs need %d bytes, %d remain", total, r.remaining())
	}
	out := make([][]byte, n)
	for i, l := range lens {
		b, err := r.bytes(int(l))
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// crossCheck validates the relationships between sections that no
// single section decoder can see: declared counts agree, per-cluster
// arrays are parallel, and every posting or index val names a real
// cluster. Membership-level verification (index ↔ cluster ASNs) is
// cluster.Restore's job; this keeps slice indexing in the serving
// layer provably in-bounds.
func crossCheck(img *Image) error {
	n := len(img.Clusters)
	if img.statOrgs != n {
		return fmt.Errorf("%w: stats declare %d orgs, clusters section has %d", ErrCorrupt, img.statOrgs, n)
	}
	if img.statASNs != len(img.Keys) {
		return fmt.Errorf("%w: stats declare %d networks, index has %d", ErrCorrupt, img.statASNs, len(img.Keys))
	}
	if len(img.Vals) != len(img.Keys) {
		return fmt.Errorf("%w: %d index keys but %d vals", ErrCorrupt, len(img.Keys), len(img.Vals))
	}
	if len(img.LowerNames) != n || len(img.OrgBodies) != n || len(img.ASTails) != n {
		return fmt.Errorf("%w: per-cluster arrays disagree: %d clusters, %d names, %d bodies, %d tails",
			ErrCorrupt, n, len(img.LowerNames), len(img.OrgBodies), len(img.ASTails))
	}
	for i, v := range img.Vals {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("%w: index val %d out of range at %d", ErrCorrupt, v, i)
		}
	}
	for ti, ids := range img.Postings {
		for j, id := range ids {
			if id < 0 || int(id) >= n {
				return fmt.Errorf("%w: token %q posting %d out of range", ErrCorrupt, img.Tokens[ti], id)
			}
			if j > 0 && ids[j-1] >= id {
				return fmt.Errorf("%w: token %q postings not strictly ascending", ErrCorrupt, img.Tokens[ti])
			}
		}
	}
	return nil
}

// ReadFileFS loads and decodes the artifact at path on fsys (nil
// means the real disk), so scrubbers and chaos tests observe exactly
// the bytes that filesystem serves. The file is read once into memory;
// the returned image's byte slices alias that buffer. The verify pass
// is folded into the read: each section is hashed as its bytes arrive
// (while they are cache-hot) instead of re-walking the full buffer
// after the read, so the file is traversed once.
func ReadFileFS(fsys vfs.FS, path string) (*Image, string, error) {
	f, err := vfs.Or(fsys).Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, "", err
	}
	var head [headerSize]byte
	n, err := io.ReadFull(f, head[:])
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, "", err
	}
	fr, err := parseFrame(head[:n], uint64(st.Size()))
	if err != nil {
		return nil, "", err
	}
	data := make([]byte, fr.size)
	copy(data, head[:])
	if _, err := io.ReadFull(f, data[headerSize:fr.tableEnd]); err != nil {
		return nil, "", fmt.Errorf("%w: section table: %v", ErrTruncated, err)
	}
	spans, err := fr.spans(data[headerSize:fr.tableEnd])
	if err != nil {
		return nil, "", err
	}
	digest := sha256.New()
	for _, sp := range spans {
		payload := data[sp.off : sp.off+sp.length]
		if _, err := io.ReadFull(f, payload); err != nil {
			return nil, "", fmt.Errorf("%w: section %d: %v", ErrTruncated, sp.id, err)
		}
		if sp.id != secProvenance {
			digest.Write(payload)
		}
	}
	return fr.decode(spans, data, digest.Sum(nil))
}

// ReadFileMapped loads an artifact through a read-only memory mapping:
// the decode is the same verified path as ReadFileFS, but the
// pre-rendered bodies alias the mapping, so the heap holds only the
// index-sized sections and the kernel pages body bytes in on demand.
// The returned release function unmaps the file and MUST NOT be called
// while any byte slice of the image is still reachable; it is nil
// whenever the image is heap-backed instead (platforms without mmap,
// zero-length or unmappable files), in which case no cleanup is owed.
func ReadFileMapped(path string) (*Image, string, func(), error) {
	if !mmapSupported {
		img, hash, err := ReadFileFS(nil, path)
		return img, hash, nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, "", nil, err
	}
	if st.Size() < headerSize || int64(int(st.Size())) != st.Size() {
		img, hash, err := ReadFileFS(nil, path)
		return img, hash, nil, err
	}
	data, unmap, err := mmapFile(f, int(st.Size()))
	if err != nil {
		// Filesystems that cannot map (or ran out of map areas) still
		// serve the buffered path.
		img, hash, err := ReadFileFS(nil, path)
		return img, hash, nil, err
	}
	img, hash, err := decode(data)
	if err != nil {
		_ = unmap()
		return nil, "", nil, err
	}
	return img, hash, func() { _ = unmap() }, nil
}

// SniffFile reports whether path starts with the snapbin magic — the
// cheap test a source uses to prefer the binary load path over a
// JSONL rebuild.
func SniffFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var head [8]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return false
	}
	return string(head[:]) == Magic
}

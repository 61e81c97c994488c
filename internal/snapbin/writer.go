// Streaming artifact writer: sections are produced one at a time,
// hashed as they stream, and the real header is returned at the end
// for the caller to patch over the placeholder at offset 0. Each byte
// is serialized exactly once, and a producer can emit a section
// incrementally without materializing the full Image first.
package snapbin

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
)

// writer streams one snapbin artifact section-at-a-time. Usage:
// newWriter, then for each canonical section ID in order call section
// and write the payload to the returned sink, then finish and write
// the returned header at offset 0 of the output.
type writer struct {
	bw      *bufio.Writer
	digest  hash.Hash
	lengths []uint64
	next    int  // index into sectionIDs of the section being written
	open    bool // a section call is active
	err     error
}

// newWriter starts an artifact at the sink's current position (which
// must be the artifact's offset 0). A placeholder header and section
// table are written immediately so the first payload byte lands at its
// final offset.
func newWriter(w io.Writer) *writer {
	sw := &writer{
		bw:      bufio.NewWriterSize(w, 1<<20),
		digest:  sha256.New(),
		lengths: make([]uint64, len(sectionIDs)),
	}
	blank := make([]byte, headerSize+sectionEntrySize*len(sectionIDs))
	if _, err := sw.bw.Write(blank); err != nil {
		sw.err = err
	}
	return sw
}

// section begins the next section's payload and returns the sink to
// write it to. IDs must arrive in canonical order (sectionIDs); the
// previous section is sealed by the call.
func (w *writer) section(id uint32) (io.Writer, error) {
	if w.err != nil {
		return nil, w.err
	}
	if w.open {
		w.next++
	}
	if w.next >= len(sectionIDs) || sectionIDs[w.next] != id {
		w.err = fmt.Errorf("snapbin: section %d out of order (want %v at position %d)", id, sectionIDs[min(w.next, len(sectionIDs)-1)], w.next)
		return nil, w.err
	}
	w.open = true
	return sectionSink{w}, nil
}

// sectionSink routes payload bytes to the buffered output and, for
// hashed sections, the running digest.
type sectionSink struct{ w *writer }

func (s sectionSink) Write(p []byte) (int, error) {
	w := s.w
	if w.err != nil {
		return 0, w.err
	}
	if _, err := w.bw.Write(p); err != nil {
		w.err = err
		return 0, err
	}
	if sectionIDs[w.next] != secProvenance {
		w.digest.Write(p)
	}
	w.lengths[w.next] += uint64(len(p))
	return len(p), nil
}

// finish seals the last section, flushes the payload bytes, and
// returns the real header and section table — to be written over the
// placeholder at offset 0 — together with the content hash.
func (w *writer) finish() ([]byte, string, error) {
	if w.err != nil {
		return nil, "", w.err
	}
	if !w.open || w.next != len(sectionIDs)-1 {
		w.err = fmt.Errorf("snapbin: finish after %d of %d sections", w.next, len(sectionIDs))
		return nil, "", w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return nil, "", err
	}
	tableSize := uint64(sectionEntrySize * len(sectionIDs))
	offset := uint64(headerSize) + tableSize
	total := offset
	for _, n := range w.lengths {
		total += n
	}
	header := make([]byte, headerSize, headerSize+tableSize)
	copy(header, Magic)
	binary.LittleEndian.PutUint32(header[8:], Version)
	binary.LittleEndian.PutUint32(header[12:], uint32(len(sectionIDs)))
	binary.LittleEndian.PutUint64(header[16:], total)
	sum := w.digest.Sum(nil)
	copy(header[24:56], sum)
	for i, id := range sectionIDs {
		var entry [sectionEntrySize]byte
		binary.LittleEndian.PutUint32(entry[0:], id)
		binary.LittleEndian.PutUint64(entry[4:], offset)
		binary.LittleEndian.PutUint64(entry[12:], w.lengths[i])
		header = append(header, entry[:]...)
		offset += w.lengths[i]
	}
	w.err = fmt.Errorf("snapbin: writer already finished")
	return header, hex.EncodeToString(sum), nil
}

// encode streams an image through the section writer into w and
// returns the header to patch in at offset 0, plus the content hash.
func encode(w io.Writer, img *Image) ([]byte, string, error) {
	sw := newWriter(w)
	for _, id := range sectionIDs {
		sec, err := sw.section(id)
		if err != nil {
			return nil, "", err
		}
		if err := sectionWriters[id](sec, img); err != nil {
			return nil, "", err
		}
	}
	return sw.finish()
}

// Marshal encodes an image into memory through the section writer,
// patches the header in place, and returns the artifact bytes and
// their content hash.
func Marshal(img *Image) ([]byte, string, error) {
	var buf bytes.Buffer
	header, hash, err := encode(&buf, img)
	if err != nil {
		return nil, "", err
	}
	data := buf.Bytes()
	copy(data, header)
	return data, hash, nil
}

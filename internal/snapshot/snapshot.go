// Package snapshot is the low-level codec under the engine's
// checkpoint/resume support: a versioned, checksummed, append-only binary
// format with typed accessors.
//
// The format is deliberately simple — a fixed header, a flat sequence of
// fixed-width little-endian fields and length-prefixed byte strings, and a
// trailing CRC32 over everything before it:
//
//	magic   [4]byte  "FRCP"
//	version uint16
//	payload ...      (writer-defined field sequence)
//	crc32   uint32   IEEE, over magic+version+payload
//
// There is no field tagging or schema negotiation: a snapshot is only
// meaningful to the exact code that wrote it, so the version number is the
// schema and any mismatch is a hard error. Corruption detection, not
// recovery, is the goal — a truncated or bit-flipped snapshot must fail
// loudly before any state is restored, never yield a partial resume.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic identifies a snapshot file.
var Magic = [4]byte{'F', 'R', 'C', 'P'}

// Codec errors. Decoding wraps them with context; use errors.Is.
var (
	// ErrTruncated: the data ends before a declared field or the trailer.
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrBadMagic: the data does not start with the snapshot magic.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrChecksum: the trailing CRC32 does not match the content.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrVersion: the snapshot was written by a different format version.
	ErrVersion = errors.New("snapshot: version mismatch")
)

// headerLen is magic + version; trailerLen the CRC32.
const (
	headerLen  = 4 + 2
	trailerLen = 4
)

// Writer accumulates a snapshot payload and seals it with the checksum.
type Writer struct {
	buf []byte
}

// NewWriter starts a snapshot at the given format version.
func NewWriter(version uint16) *Writer {
	return NewWriterInto(version, make([]byte, 0, 4096))
}

// NewWriterInto is NewWriter writing over buf's storage (from buf[:0]),
// so a caller that snapshots repeatedly reuses one grown buffer instead
// of regrowing a fresh one each time.
func NewWriterInto(version uint16, buf []byte) *Writer {
	w := &Writer{buf: buf[:0]}
	w.buf = append(w.buf, Magic[:]...)
	w.buf = binary.LittleEndian.AppendUint16(w.buf, version)
	return w
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Bytes appends a uint32 length prefix followed by b.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Raw appends b with no length prefix (fixed-width fields the reader
// knows the size of, e.g. addresses).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Finish appends the CRC32 trailer and returns the sealed snapshot. The
// Writer must not be used afterwards.
func (w *Writer) Finish() []byte {
	crc := crc32.ChecksumIEEE(w.buf)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc)
	return w.buf
}

// Reader decodes a sealed snapshot. All validation — length, magic,
// checksum, version — happens in NewReader, so by the time the typed
// getters run, the bytes are known-good; getters only fail on overrun
// (a writer/reader schema disagreement), and the error is sticky.
type Reader struct {
	buf []byte // payload only (header and trailer stripped)
	off int
	err error
}

// NewReader validates data (length, magic, CRC32, version) and returns a
// payload reader positioned at the first field.
func NewReader(data []byte, wantVersion uint16) (*Reader, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if [4]byte(data[:4]) != Magic {
		return nil, ErrBadMagic
	}
	body, trailer := data[:len(data)-trailerLen], data[len(data)-trailerLen:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, ErrChecksum
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != wantVersion {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads %d",
			ErrVersion, v, wantVersion)
	}
	return &Reader{buf: body[headerLen:]}, nil
}

// Err returns the first decoding error (overrun), if any. Callers check
// it once after reading a batch of fields.
func (r *Reader) Err() error { return r.err }

// take returns the next n payload bytes, or nil after setting the sticky
// error on overrun.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: field overruns payload at offset %d", ErrTruncated, r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads a one-byte boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bytes reads a uint32-length-prefixed byte string. The returned slice
// aliases the snapshot buffer; copy it to retain past the decode.
func (r *Reader) Bytes() []byte {
	n := r.U32()
	return r.take(int(n))
}

// Raw reads n bytes with no length prefix. The returned slice aliases the
// snapshot buffer.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Remaining reports how many unread payload bytes are left (schema
// self-checks at the end of a decode).
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

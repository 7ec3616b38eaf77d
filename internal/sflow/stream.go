package sflow

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Capture stream framing, container v1. sFlow datagrams travel over UDP
// on the wire; the original on-disk container is minimal: an 8-byte
// magic header followed by naked datagrams, each behind its big-endian
// uint32 length. Captures are written in the checksummed block
// container v2 (see block.go); this reader is kept so every v1 capture
// ever written stays readable.

var streamMagic = [8]byte{'I', 'X', 'P', 'S', 'F', 'L', 'W', '1'}

// ErrBadMagic indicates the input is not a capture stream.
var ErrBadMagic = errors.New("sflow: bad capture stream magic")

// ErrTruncated marks a capture cut off mid-structure — a frame, block or
// header that ends before its declared length, the signature of a crash
// or kill -9 during capture. Readers return it (test with errors.Is) so
// analysis can distinguish a crash-truncated capture, which degrades to
// whatever decoded cleanly, from structural corruption, which fails.
var ErrTruncated = errors.New("sflow: capture truncated mid-structure")

// maxDatagramLen bounds a single framed datagram so a corrupt length
// field cannot trigger a huge allocation.
const maxDatagramLen = 1 << 20

// StreamReader reads a v1 capture stream.
type StreamReader struct {
	r   *bufio.Reader
	buf []byte
}

// NewStreamReader validates the stream header and returns a reader.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("sflow: reading stream header: %w", err)
	}
	if magic != streamMagic {
		return nil, ErrBadMagic
	}
	return &StreamReader{r: br}, nil
}

// Next decodes the next datagram into d. It returns io.EOF at a clean end
// of stream and an error wrapping ErrTruncated when the stream stops
// mid-frame (a crash-truncated capture). The datagram's header byte
// slices alias an internal buffer that is overwritten by the following
// Next call.
func (sr *StreamReader) Next(d *Datagram) error {
	var lenbuf [4]byte
	if _, err := io.ReadFull(sr.r, lenbuf[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("sflow: frame length cut short: %w", ErrTruncated)
		}
		return fmt.Errorf("sflow: reading frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenbuf[:])
	if n > maxDatagramLen {
		return fmt.Errorf("sflow: framed datagram length %d exceeds limit", n)
	}
	if cap(sr.buf) < int(n) {
		sr.buf = make([]byte, n)
	}
	sr.buf = sr.buf[:n]
	if _, err := io.ReadFull(sr.r, sr.buf); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("sflow: framed datagram cut short: %w", ErrTruncated)
		}
		return fmt.Errorf("sflow: reading framed datagram: %w", err)
	}
	return Decode(sr.buf, d)
}

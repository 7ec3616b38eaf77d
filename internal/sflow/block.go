package sflow

import (
	"bufio"
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
)

// Capture container v2 ("IXPSFLW2"). The v1 container is a magic header
// followed by naked length-prefixed datagrams: nothing detects a flipped
// bit on disk, nothing compresses the heavily redundant sampled headers,
// and a reader must walk every frame serially. v2 borrows the block model
// of production trace stores (pcap-ng, Parquet): datagrams are grouped
// into fixed-target-size blocks, each block carries a CRC32C checksum, an
// optional flate compression flag, its datagram count and the stream
// position of its first datagram, and a footer indexes block offsets so a
// reader can fan whole blocks out to a decode-worker pool. Per-block
// framing buys integrity (a damaged block is quarantined, not decoded as
// garbage), compression, seekability and parallel decode at once, and a
// crash-truncated file still yields every intact block.
//
// Layout:
//
//	file   := "IXPSFLW2" block* footer?
//	block  := "BLK2" count:u32 firstPos:u64 rawLen:u32 diskLen:u32
//	          codec:u8 crc:u32 payload[diskLen]
//	footer := "IDX2" n:u32 entry[n] icrc:u32 footLen:u32 "IXPSEND2"
//	entry  := offset:u64 count:u32 firstPos:u64
//
// All integers are big-endian. A block's crc is CRC32C over the header
// bytes before the crc field plus the payload as stored on disk, so both
// header and payload damage are caught. The payload decompresses (codec 1
// is DEFLATE; codec 0 is stored) to rawLen bytes of u32-length-prefixed
// encoded datagrams — the same framing v1 uses inside its stream. The
// footer's icrc is CRC32C over the footer bytes before it, and the fixed
// 12-byte tail (footLen plus the end magic) lets a reader seek straight
// to the index from the end of the file.

var (
	blockMagic   = [8]byte{'I', 'X', 'P', 'S', 'F', 'L', 'W', '2'}
	blockMarker  = [4]byte{'B', 'L', 'K', '2'}
	footerMarker = [4]byte{'I', 'D', 'X', '2'}
	tailMagic    = [8]byte{'I', 'X', 'P', 'S', 'E', 'N', 'D', '2'}
)

const (
	// blockHeaderLen is the fixed on-disk block header: marker(4) +
	// count(4) + firstPos(8) + rawLen(4) + diskLen(4) + codec(1) + crc(4).
	blockHeaderLen = 29
	// blockCRCOffset is where the crc field sits inside the header; the
	// checksum covers header[:blockCRCOffset] plus the payload.
	blockCRCOffset = blockHeaderLen - 4

	// blockTargetRaw is the target uncompressed payload per block: large
	// enough to amortize framing and give flate context, small enough
	// that dozens of blocks are in flight on a worker pool.
	blockTargetRaw = 256 << 10
	// maxBlockRaw bounds a declared payload so a corrupt length field
	// cannot trigger a huge allocation: the target plus one maximum
	// datagram that straddled the boundary, plus framing slack.
	maxBlockRaw = blockTargetRaw + maxDatagramLen + (1 << 12)
	// maxBlockDisk bounds the stored payload (flate can expand a little).
	maxBlockDisk = maxBlockRaw + (1 << 12)

	codecNone  = 0
	codecFlate = 1

	footerEntryLen = 20
	footerTailLen  = 12
	// maxFooterEntries bounds the index a reader will allocate for.
	maxFooterEntries = 1 << 24
)

// castagnoli is the CRC32C polynomial table; Go's crc32 package uses
// hardware CRC instructions for it where available.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BlockStats is a snapshot of a v2 reader's block accounting.
type BlockStats struct {
	// Blocks counts blocks that verified and decoded cleanly.
	Blocks uint64
	// CorruptBlocks counts blocks whose checksum (or framing, when the
	// footer index vouched for the extent) did not verify; their
	// datagrams are quarantined, never decoded.
	CorruptBlocks uint64
	// Datagrams counts datagrams decoded from clean blocks.
	Datagrams uint64
	// QuarantinedDatagrams estimates datagrams lost to corrupt blocks,
	// from the footer index when present and the (capped) block header
	// count otherwise.
	QuarantinedDatagrams uint64
	// RawBytes and DiskBytes total the uncompressed and on-disk payload
	// sizes of clean blocks.
	RawBytes  uint64
	DiskBytes uint64
	// Truncated reports the file ended before its footer — the signature
	// of a crash during capture. Every intact block was still delivered.
	Truncated bool
	// FooterVerified reports a footer was found and its checksum passed.
	FooterVerified bool
}

// blockIndexEntry is one footer entry.
type blockIndexEntry struct {
	offset   uint64
	count    uint32
	firstPos uint64
}

// quarantineCount estimates how many datagrams a corrupt block held from
// its (untrusted) header fields: the declared count, capped by the
// smallest datagram the declared payload size could frame.
func quarantineCount(count, rawLen uint32) uint64 {
	q := uint64(count)
	if m := uint64(rawLen) / 32; q > m {
		q = m
	}
	return q
}

// BlockWriter writes the v2 container. It buffers encoded datagrams into
// a pending block and seals the block when it reaches the target size (or
// on Flush/Close), accumulating the footer index as it goes.
type BlockWriter struct {
	w        *bufio.Writer
	compress bool

	raw      []byte // pending block payload (length-prefixed datagrams)
	count    uint32 // datagrams in the pending block
	firstPos uint64 // stream position of the pending block's first datagram
	pos      uint64 // datagrams written overall
	off      uint64 // file offset where the next block starts

	index   []blockIndexEntry
	scratch []byte // datagram encode scratch
	hdr     [blockHeaderLen]byte
	comp    bytes.Buffer
	fw      *flate.Writer
	closed  bool
}

// NewBlockWriter writes the container header and returns a writer. With
// compress set, block payloads are DEFLATE-compressed when that actually
// shrinks them (incompressible blocks are stored).
func NewBlockWriter(w io.Writer, compress bool) (*BlockWriter, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(blockMagic[:]); err != nil {
		return nil, err
	}
	return &BlockWriter{w: bw, compress: compress, off: uint64(len(blockMagic))}, nil
}

// WriteDatagram encodes and appends one datagram, sealing a block when
// the pending payload reaches the target size.
func (bw *BlockWriter) WriteDatagram(d *Datagram) error {
	if bw.closed {
		return errors.New("sflow: write to closed BlockWriter")
	}
	bw.scratch = d.AppendEncode(bw.scratch[:0])
	if len(bw.scratch) > maxDatagramLen {
		return fmt.Errorf("sflow: datagram of %d bytes exceeds stream limit", len(bw.scratch))
	}
	if bw.count == 0 {
		bw.firstPos = bw.pos
	}
	bw.raw = binary.BigEndian.AppendUint32(bw.raw, uint32(len(bw.scratch)))
	bw.raw = append(bw.raw, bw.scratch...)
	bw.count++
	bw.pos++
	if len(bw.raw) >= blockTargetRaw {
		return bw.sealBlock()
	}
	return nil
}

// sealBlock writes the pending block (if any) and starts a fresh one.
func (bw *BlockWriter) sealBlock() error {
	if bw.count == 0 {
		return nil
	}
	payload := bw.raw
	codec := byte(codecNone)
	if bw.compress {
		bw.comp.Reset()
		if bw.fw == nil {
			fw, err := flate.NewWriter(&bw.comp, flate.BestSpeed)
			if err != nil {
				return err
			}
			bw.fw = fw
		} else {
			bw.fw.Reset(&bw.comp)
		}
		if _, err := bw.fw.Write(bw.raw); err != nil {
			return err
		}
		if err := bw.fw.Close(); err != nil {
			return err
		}
		if bw.comp.Len() < len(bw.raw) {
			payload = bw.comp.Bytes()
			codec = codecFlate
		}
	}

	h := bw.hdr[:]
	copy(h, blockMarker[:])
	binary.BigEndian.PutUint32(h[4:], bw.count)
	binary.BigEndian.PutUint64(h[8:], bw.firstPos)
	binary.BigEndian.PutUint32(h[16:], uint32(len(bw.raw)))
	binary.BigEndian.PutUint32(h[20:], uint32(len(payload)))
	h[24] = codec
	crc := crc32.Checksum(h[:blockCRCOffset], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	binary.BigEndian.PutUint32(h[blockCRCOffset:], crc)

	if _, err := bw.w.Write(h); err != nil {
		return err
	}
	if _, err := bw.w.Write(payload); err != nil {
		return err
	}
	bw.index = append(bw.index, blockIndexEntry{offset: bw.off, count: bw.count, firstPos: bw.firstPos})
	bw.off += uint64(blockHeaderLen + len(payload))
	bw.raw = bw.raw[:0]
	bw.count = 0
	return nil
}

// Count returns the number of datagrams written so far.
func (bw *BlockWriter) Count() int { return int(bw.pos) }

// Flush seals the pending block (even if short of the target size) and
// flushes buffered bytes to the underlying writer, so a crash afterwards
// loses nothing already written. Frequent flushes trade compression ratio
// for durability.
func (bw *BlockWriter) Flush() error {
	if err := bw.sealBlock(); err != nil {
		return err
	}
	return bw.w.Flush()
}

// Close seals the pending block, writes the footer index and flushes. The
// underlying writer is not closed. A file missing its footer (Close never
// ran) is still fully readable by sequential scan.
func (bw *BlockWriter) Close() error {
	if bw.closed {
		return nil
	}
	bw.closed = true
	if err := bw.sealBlock(); err != nil {
		return err
	}
	foot := make([]byte, 0, 8+footerEntryLen*len(bw.index)+footerTailLen+4)
	foot = append(foot, footerMarker[:]...)
	foot = binary.BigEndian.AppendUint32(foot, uint32(len(bw.index)))
	for _, e := range bw.index {
		foot = binary.BigEndian.AppendUint64(foot, e.offset)
		foot = binary.BigEndian.AppendUint32(foot, e.count)
		foot = binary.BigEndian.AppendUint64(foot, e.firstPos)
	}
	foot = binary.BigEndian.AppendUint32(foot, crc32.Checksum(foot, castagnoli))
	footLen := uint32(len(foot))
	foot = binary.BigEndian.AppendUint32(foot, footLen)
	foot = append(foot, tailMagic[:]...)
	if _, err := bw.w.Write(foot); err != nil {
		return err
	}
	return bw.w.Flush()
}

// blockCodec holds per-goroutine decode state: the flate reader is
// recycled across blocks via flate.Resetter.
type blockCodec struct {
	fr io.ReadCloser
}

// inflate decompresses src into dst[:rawLen], verifying the decompressed
// size matches exactly.
func (c *blockCodec) inflate(dst, src []byte) error {
	br := bytes.NewReader(src)
	if c.fr == nil {
		c.fr = flate.NewReader(br)
	} else if err := c.fr.(flate.Resetter).Reset(br, nil); err != nil {
		return err
	}
	if _, err := io.ReadFull(c.fr, dst); err != nil {
		return fmt.Errorf("sflow: block decompression short: %w", err)
	}
	var one [1]byte
	if n, _ := c.fr.Read(one[:]); n != 0 {
		return errors.New("sflow: block decompressed past declared size")
	}
	return nil
}

// decodeBlockPayload verifies and decodes one framed block (header plus
// stored payload) into dgs, reusing dgs and the raw scratch buffer.
// c must be non-nil; its flate reader is recycled across calls.
// trusted reports whether the block's extent came from a verified footer
// index: then any damage — even to the header — quarantines the block
// (corrupt=true) instead of failing the stream. Without a trusted extent
// a checksum mismatch still quarantines (the next block is found via the
// declared diskLen, which the caller already used to frame data), but
// decode failures after a passing checksum are structural errors.
func decodeBlockPayload(data []byte, raw []byte, dgs []Datagram, c *blockCodec, trusted bool) (outDgs []Datagram, outRaw []byte, corrupt bool, rawLen, diskLen uint32, hdrCount uint32, err error) {
	dgs = dgs[:0]
	fail := func(e error) ([]Datagram, []byte, bool, uint32, uint32, uint32, error) {
		if trusted {
			return dgs, raw, true, rawLen, diskLen, hdrCount, nil
		}
		return dgs, raw, false, rawLen, diskLen, hdrCount, e
	}
	if len(data) < blockHeaderLen || !bytes.Equal(data[:4], blockMarker[:]) {
		return fail(errors.New("sflow: bad block marker"))
	}
	hdrCount = binary.BigEndian.Uint32(data[4:])
	rawLen = binary.BigEndian.Uint32(data[16:])
	diskLen = binary.BigEndian.Uint32(data[20:])
	codec := data[24]
	if rawLen > maxBlockRaw || diskLen > maxBlockDisk || int(diskLen) != len(data)-blockHeaderLen ||
		codec > codecFlate || (codec == codecNone && rawLen != diskLen) {
		return fail(errors.New("sflow: block header out of bounds"))
	}
	payload := data[blockHeaderLen:]
	crc := crc32.Checksum(data[:blockCRCOffset], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != binary.BigEndian.Uint32(data[blockCRCOffset:]) {
		// Checksum failure is never structural: quarantine and move on.
		return dgs, raw, true, rawLen, diskLen, hdrCount, nil
	}
	if codec == codecFlate {
		if cap(raw) < int(rawLen) {
			raw = make([]byte, rawLen)
		}
		raw = raw[:rawLen]
		if err := c.inflate(raw, payload); err != nil {
			return fail(err)
		}
		payload = raw
	}
	// Split the length-prefixed datagrams. The checksum passed, so any
	// inconsistency here is writer-side damage, not disk damage.
	for rest := payload; len(rest) > 0; {
		if len(rest) < 4 {
			return fail(errors.New("sflow: block payload framing damaged"))
		}
		n := binary.BigEndian.Uint32(rest)
		if n > maxDatagramLen || int(n) > len(rest)-4 {
			return fail(errors.New("sflow: block payload framing damaged"))
		}
		// Re-slice into spare capacity rather than appending a zero
		// Datagram: Decode resets the slot but keeps its Flows and
		// Counters arrays, so a recycled slot decodes without allocating.
		if len(dgs) < cap(dgs) {
			dgs = dgs[:len(dgs)+1]
		} else {
			dgs = append(dgs, Datagram{})
		}
		d := &dgs[len(dgs)-1]
		if derr := Decode(rest[4:4+n], d); derr != nil {
			dgs = dgs[:len(dgs)-1]
			return fail(fmt.Errorf("sflow: datagram in checksummed block: %w", derr))
		}
		rest = rest[4+n:]
	}
	return dgs, raw, false, rawLen, diskLen, hdrCount, nil
}

// frame kinds returned by readFrame.
const (
	frameBlock = iota
	frameFooter
	frameEnd
)

// truncOr classifies a short-read error: an EOF-class error means the
// file genuinely ends mid-structure (truncation), while any other error
// (EIO, a failing device) is a real I/O fault that must propagate as
// itself — relabeling it as truncation would silently degrade a
// readable file into a lossy decode instead of surfacing the failure.
func truncOr(err error, what string) error {
	if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("sflow: %s cut short: %w", what, ErrTruncated)
	}
	return fmt.Errorf("sflow: %s: %w", what, err)
}

// readFrame reads the next container frame from br into buf (reused):
// a full block (header plus payload), a footer (parsed and verified in
// place; footerOK reports the verification), or a clean end of input
// before any marker — which means the writer never wrote its footer.
func readFrame(br *bufio.Reader, buf []byte) (kind int, data []byte, footerOK bool, err error) {
	var marker [4]byte
	if _, err := io.ReadFull(br, marker[:]); err != nil {
		if err == io.EOF {
			return frameEnd, buf, false, nil
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, buf, false, fmt.Errorf("sflow: block marker cut short: %w", ErrTruncated)
		}
		return 0, buf, false, err
	}
	switch marker {
	case blockMarker:
		if cap(buf) < blockHeaderLen {
			buf = make([]byte, 0, blockHeaderLen+blockTargetRaw)
		}
		buf = buf[:blockHeaderLen]
		copy(buf, marker[:])
		if _, err := io.ReadFull(br, buf[4:]); err != nil {
			return 0, buf, false, truncOr(err, "block header")
		}
		diskLen := binary.BigEndian.Uint32(buf[20:])
		if diskLen > maxBlockDisk {
			return 0, buf, false, fmt.Errorf("sflow: block payload length %d exceeds limit", diskLen)
		}
		if cap(buf) < blockHeaderLen+int(diskLen) {
			grown := make([]byte, blockHeaderLen+int(diskLen))
			copy(grown, buf)
			buf = grown
		}
		buf = buf[:blockHeaderLen+int(diskLen)]
		if _, err := io.ReadFull(br, buf[blockHeaderLen:]); err != nil {
			return 0, buf, false, truncOr(err, "block payload")
		}
		return frameBlock, buf, false, nil
	case footerMarker:
		ok, err := readFooterStream(br)
		if err != nil {
			return 0, buf, false, err
		}
		return frameFooter, buf, ok, nil
	default:
		return 0, buf, false, fmt.Errorf("sflow: bad block marker %q", marker[:])
	}
}

// readFooterStream consumes and verifies a footer whose "IDX2" marker has
// already been read. It reports whether the index checksum and tail
// verified; damage to the footer is not fatal (every block was already
// delivered), but truncation inside it is still reported as such.
func readFooterStream(br *bufio.Reader) (ok bool, err error) {
	var nbuf [4]byte
	if _, err := io.ReadFull(br, nbuf[:]); err != nil {
		return false, truncOr(err, "footer")
	}
	n := binary.BigEndian.Uint32(nbuf[:])
	if n > maxFooterEntries {
		return false, nil
	}
	// Stream the entries through the checksum in fixed chunks: a corrupt
	// entry count must not provoke a giant allocation.
	crc := crc32.Checksum(footerMarker[:], castagnoli)
	crc = crc32.Update(crc, castagnoli, nbuf[:])
	var chunk [4096]byte
	for left := footerEntryLen * int64(n); left > 0; {
		c := int64(len(chunk))
		if c > left {
			c = left
		}
		if _, err := io.ReadFull(br, chunk[:c]); err != nil {
			return false, truncOr(err, "footer")
		}
		crc = crc32.Update(crc, castagnoli, chunk[:c])
		left -= c
	}
	var icrcb [4]byte
	if _, err := io.ReadFull(br, icrcb[:]); err != nil {
		return false, truncOr(err, "footer")
	}
	if crc != binary.BigEndian.Uint32(icrcb[:]) {
		return false, nil
	}
	var tail [footerTailLen]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return false, truncOr(err, "footer tail")
	}
	footLen := binary.BigEndian.Uint32(tail[:4])
	if footLen != uint32(8+footerEntryLen*int64(n)+4) || !bytes.Equal(tail[4:], tailMagic[:]) {
		return false, nil
	}
	return true, nil
}

// BlockReader reads a v2 container sequentially from any io.Reader,
// decoding one block at a time. Corrupt blocks are quarantined and
// skipped; a file that ends mid-structure returns an error wrapping
// ErrTruncated after delivering every intact block before the cut.
type BlockReader struct {
	r     *bufio.Reader
	buf   []byte
	raw   []byte
	dgs   []Datagram
	cur   int
	codec blockCodec
	st    BlockStats
	done  bool
}

// NewBlockReader validates the container header and returns a reader.
func NewBlockReader(r io.Reader) (*BlockReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("sflow: reading container header: %w", err)
	}
	if magic != blockMagic {
		return nil, ErrBadMagic
	}
	return &BlockReader{r: br}, nil
}

// Next decodes the next datagram into d. It returns io.EOF at the end of
// the container (clean, or after a missing/damaged footer — see Stats)
// and an error wrapping ErrTruncated when the file stops mid-structure.
// The datagram — its Flows and Counters slices and the header bytes they
// point to — aliases reader-owned buffers valid only until a subsequent
// Next call.
func (r *BlockReader) Next(d *Datagram) error {
	for {
		if r.cur < len(r.dgs) {
			*d = r.dgs[r.cur]
			r.cur++
			r.st.Datagrams++
			return nil
		}
		if r.done {
			return io.EOF
		}
		kind, buf, footerOK, err := readFrame(r.r, r.buf)
		r.buf = buf
		if err != nil {
			r.done = true
			if errors.Is(err, ErrTruncated) {
				r.st.Truncated = true
			}
			return err
		}
		switch kind {
		case frameEnd:
			r.done = true
			r.st.Truncated = true // footer never written
			return io.EOF
		case frameFooter:
			r.done = true
			r.st.FooterVerified = footerOK
			return io.EOF
		}
		dgs, raw, corrupt, rawLen, diskLen, hdrCount, derr := decodeBlockPayload(r.buf, r.raw, r.dgs[:0], &r.codec, false)
		r.dgs, r.raw, r.cur = dgs, raw, 0
		if derr != nil {
			r.done = true
			return derr
		}
		if corrupt {
			r.dgs = r.dgs[:0]
			r.st.CorruptBlocks++
			r.st.QuarantinedDatagrams += quarantineCount(hdrCount, rawLen)
			continue
		}
		r.st.Blocks++
		r.st.RawBytes += uint64(rawLen)
		r.st.DiskBytes += uint64(blockHeaderLen) + uint64(diskLen)
	}
}

// Stats returns the block accounting so far.
func (r *BlockReader) Stats() BlockStats { return r.st }

// CaptureFormat reports the container version a magic header announces:
// 1, 2, or 0 for neither.
func CaptureFormat(magic [8]byte) int {
	switch magic {
	case streamMagic:
		return 1
	case blockMagic:
		return 2
	}
	return 0
}

// pbrStats is the ParallelBlockReader's accounting, atomics because the
// producer, workers and consumer all contribute.
type pbrStats struct {
	blocks      atomic.Uint64
	corrupt     atomic.Uint64
	datagrams   atomic.Uint64
	quarantined atomic.Uint64
	rawBytes    atomic.Uint64
	diskBytes   atomic.Uint64
	truncated   atomic.Bool
	footerOK    atomic.Bool
}

func (s *pbrStats) snapshot() BlockStats {
	return BlockStats{
		Blocks:               s.blocks.Load(),
		CorruptBlocks:        s.corrupt.Load(),
		Datagrams:            s.datagrams.Load(),
		QuarantinedDatagrams: s.quarantined.Load(),
		RawBytes:             s.rawBytes.Load(),
		DiskBytes:            s.diskBytes.Load(),
		Truncated:            s.truncated.Load(),
		FooterVerified:       s.footerOK.Load(),
	}
}

// pbrSlot carries one block through the producer -> worker -> consumer
// hand-off. Slots are recycled through a free list so memory stays
// bounded at the slot count regardless of file size.
type pbrSlot struct {
	data     []byte     // block bytes as framed on disk (header + payload)
	raw      []byte     // decompression scratch
	dgs      []Datagram // decoded datagrams
	trusted  bool       // extent vouched for by a verified footer index
	idxCount uint32     // footer's datagram count (trusted extents)
	err      error      // structural decode error
	ready    chan struct{}
}

// ParallelBlockReader decodes a v2 container with a worker pool: a
// producer reads block extents off the file in order, workers verify
// checksums, decompress and decode blocks concurrently, and Next hands
// datagrams back in exact file order. When the file carries a verified
// footer index the extents come from it, so even a block whose header is
// damaged quarantines cleanly and the reader resyncs at the next indexed
// offset; otherwise it falls back to scanning headers sequentially.
//
// The producer is also the file's digest check: it streams every byte
// from offset 0 to EOF — magic, block extents, the footer and whatever
// follows it — through sha256 as it reads, so the bytes that are decoded
// are the bytes that are hashed and a caller holding an expected digest
// needs no separate pass over the file (see Digest).
type ParallelBlockReader struct {
	free chan *pbrSlot
	jobs chan *pbrSlot
	out  chan *pbrSlot
	stop chan struct{}

	cur     *pbrSlot
	curi    int
	termErr error
	finErr  error  // producer's terminal error; set before out closes
	finSum  string // producer's whole-file sha256 (hex); set before out closes
	sum     string // finSum, taken over by Next when it returns io.EOF

	st        pbrStats
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// errReaderClosed reports Next after Close.
var errReaderClosed = errors.New("sflow: parallel block reader closed")

// NewParallelBlockReader validates the container header and starts
// workers decode goroutines (minimum 1). The reader takes over r until
// Close; the caller remains responsible for closing the underlying file.
func NewParallelBlockReader(r io.ReadSeeker, workers int) (*ParallelBlockReader, error) {
	if workers < 1 {
		workers = 1
	}
	var magic [8]byte
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("sflow: reading container header: %w", err)
	}
	if magic != blockMagic {
		return nil, ErrBadMagic
	}
	index, footerEnd := loadFooterIndex(r)

	if _, err := r.Seek(int64(len(blockMagic)), io.SeekStart); err != nil {
		return nil, err
	}

	slots := workers*2 + 2
	p := &ParallelBlockReader{
		free: make(chan *pbrSlot, slots),
		jobs: make(chan *pbrSlot, slots),
		out:  make(chan *pbrSlot, slots),
		stop: make(chan struct{}),
	}
	for i := 0; i < slots; i++ {
		p.free <- &pbrSlot{ready: make(chan struct{}, 1)}
	}
	if index != nil {
		p.st.footerOK.Store(true)
	}

	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	p.wg.Add(1)
	go p.produce(r, index, footerEnd)
	return p, nil
}

// loadFooterIndex reads and validates the footer index from the tail of
// the file. It returns nil when the footer is absent, damaged, or its
// entries do not tile the block region exactly — the reader then falls
// back to a sequential scan. The seek position is left undefined.
func loadFooterIndex(r io.ReadSeeker) (index []blockIndexEntry, footerStart int64) {
	size, err := r.Seek(0, io.SeekEnd)
	if err != nil || size < int64(len(blockMagic))+footerTailLen {
		return nil, 0
	}
	var tail [footerTailLen]byte
	if _, err := r.Seek(size-footerTailLen, io.SeekStart); err != nil {
		return nil, 0
	}
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, 0
	}
	if !bytes.Equal(tail[4:], tailMagic[:]) {
		return nil, 0
	}
	footLen := int64(binary.BigEndian.Uint32(tail[:4]))
	if footLen < 12 || footLen > size-int64(len(blockMagic))-footerTailLen {
		return nil, 0
	}
	footerStart = size - footerTailLen - footLen
	foot := make([]byte, footLen)
	if _, err := r.Seek(footerStart, io.SeekStart); err != nil {
		return nil, 0
	}
	if _, err := io.ReadFull(r, foot); err != nil {
		return nil, 0
	}
	if !bytes.Equal(foot[:4], footerMarker[:]) {
		return nil, 0
	}
	n := binary.BigEndian.Uint32(foot[4:])
	if n > maxFooterEntries || footLen != int64(12+footerEntryLen*int(n)) {
		return nil, 0
	}
	if crc32.Checksum(foot[:footLen-4], castagnoli) != binary.BigEndian.Uint32(foot[footLen-4:]) {
		return nil, 0
	}
	index = make([]blockIndexEntry, n)
	for i := range index {
		e := foot[8+footerEntryLen*i:]
		index[i] = blockIndexEntry{
			offset:   binary.BigEndian.Uint64(e),
			count:    binary.BigEndian.Uint32(e[8:]),
			firstPos: binary.BigEndian.Uint64(e[12:]),
		}
	}
	// The entries must tile [len(magic), footerStart) exactly with
	// plausible block extents, or the index cannot be trusted to frame
	// reads.
	end := uint64(len(blockMagic))
	for i, e := range index {
		if e.offset != end {
			return nil, 0
		}
		var next uint64
		if i+1 < len(index) {
			next = index[i+1].offset
		} else {
			next = uint64(footerStart)
		}
		extent := int64(next) - int64(e.offset)
		if extent < blockHeaderLen || extent > blockHeaderLen+maxBlockDisk {
			return nil, 0
		}
		end = next
	}
	if end != uint64(footerStart) {
		return nil, 0
	}
	return index, footerStart
}

// produce reads block extents in file order, dispatching each to the
// worker pool and, in the same order, to the consumer.
func (p *ParallelBlockReader) produce(r io.ReadSeeker, index []blockIndexEntry, footerEnd int64) {
	defer p.wg.Done()
	defer close(p.out)
	defer close(p.jobs)
	// r sits just past the magic, which NewParallelBlockReader compared
	// byte for byte; from here on every byte the producer reads is teed
	// into the hash. Blocks are far larger than the bufio buffer, so
	// their reads bypass it and each byte is copied and hashed once.
	h := sha256.New()
	h.Write(blockMagic[:])
	br := bufio.NewReaderSize(io.TeeReader(r, h), 1<<16)
	// finish hashes what follows the last frame (in index mode the
	// footer; in either mode anything appended after it) and publishes
	// the digest. Only a pass that reached EOF without error has one.
	finish := func() {
		if _, err := io.Copy(io.Discard, br); err != nil {
			p.finErr = fmt.Errorf("sflow: reading container tail: %w", err)
			return
		}
		p.finSum = hex.EncodeToString(h.Sum(nil))
	}
	if index != nil {
		// The verified index bounds every extent up front, so each slot's
		// buffer is sized once, to the largest, instead of growing block
		// by block.
		extentAt := func(i int) int {
			next := uint64(footerEnd)
			if i+1 < len(index) {
				next = index[i+1].offset
			}
			return int(next - index[i].offset)
		}
		maxExtent := 0
		for i := range index {
			maxExtent = max(maxExtent, extentAt(i))
		}
		for i, e := range index {
			extent := extentAt(i)
			slot := p.takeSlot()
			if slot == nil {
				return
			}
			if cap(slot.data) < maxExtent {
				slot.data = make([]byte, maxExtent)
			}
			slot.data = slot.data[:extent]
			if _, err := io.ReadFull(br, slot.data); err != nil {
				// The footer said these bytes exist: an EOF-class error
				// means the file shrank underneath us; anything else is
				// a device fault and propagates as itself.
				err = truncOr(err, "indexed block")
				if errors.Is(err, ErrTruncated) {
					p.st.truncated.Store(true)
				}
				p.finErr = err
				return
			}
			slot.trusted = true
			slot.idxCount = e.count
			if !p.dispatch(slot) {
				return
			}
		}
		finish()
		return
	}

	// Scan mode: no usable footer. Frame blocks off their own headers;
	// the footer frame, if one appears, re-verifies in stream form.
	for {
		slot := p.takeSlot()
		if slot == nil {
			return
		}
		kind, data, footerOK, err := readFrame(br, slot.data)
		slot.data = data
		if err != nil {
			p.free <- slot
			if errors.Is(err, ErrTruncated) {
				p.st.truncated.Store(true)
			}
			p.finErr = err
			return
		}
		switch kind {
		case frameEnd:
			p.free <- slot
			p.st.truncated.Store(true)
			finish()
			return
		case frameFooter:
			p.free <- slot
			p.st.footerOK.Store(footerOK)
			finish()
			return
		}
		slot.trusted = false
		slot.idxCount = 0
		if !p.dispatch(slot) {
			return
		}
	}
}

// takeSlot pulls a free slot, or nil if the reader is closing.
func (p *ParallelBlockReader) takeSlot() *pbrSlot {
	select {
	case s := <-p.free:
		s.err = nil
		return s
	case <-p.stop:
		return nil
	}
}

// dispatch hands a filled slot to the workers and, in order, to the
// consumer. It reports false when the reader is closing.
func (p *ParallelBlockReader) dispatch(s *pbrSlot) bool {
	select {
	case p.jobs <- s:
	case <-p.stop:
		return false
	}
	select {
	case p.out <- s:
	case <-p.stop:
		return false
	}
	return true
}

// worker verifies, decompresses and decodes blocks.
func (p *ParallelBlockReader) worker() {
	defer p.wg.Done()
	var codec blockCodec
	for slot := range p.jobs {
		dgs, raw, corrupt, rawLen, diskLen, hdrCount, err := decodeBlockPayload(slot.data, slot.raw, slot.dgs[:0], &codec, slot.trusted)
		slot.dgs, slot.raw, slot.err = dgs, raw, err
		switch {
		case err != nil:
			slot.dgs = slot.dgs[:0]
		case corrupt:
			slot.dgs = slot.dgs[:0]
			p.st.corrupt.Add(1)
			if slot.trusted {
				p.st.quarantined.Add(uint64(slot.idxCount))
			} else {
				p.st.quarantined.Add(quarantineCount(hdrCount, rawLen))
			}
		default:
			p.st.blocks.Add(1)
			p.st.datagrams.Add(uint64(len(slot.dgs)))
			p.st.rawBytes.Add(uint64(rawLen))
			p.st.diskBytes.Add(uint64(blockHeaderLen) + uint64(diskLen))
		}
		select {
		case slot.ready <- struct{}{}:
		case <-p.stop:
			return
		}
	}
}

// Next hands back the next datagram in file order. It returns io.EOF at
// the end of the container and an error wrapping ErrTruncated when the
// file stopped mid-structure (after delivering everything intact before
// the cut). The datagram — its Flows and Counters slices and the header
// bytes they point to — aliases pooled slot buffers valid only until a
// subsequent Next call.
func (p *ParallelBlockReader) Next(d *Datagram) error {
	if p.termErr != nil {
		return p.termErr
	}
	for {
		if p.cur != nil && p.curi < len(p.cur.dgs) {
			*d = p.cur.dgs[p.curi]
			p.curi++
			return nil
		}
		if p.cur != nil {
			p.free <- p.cur
			p.cur = nil
		}
		select {
		case slot, ok := <-p.out:
			if !ok {
				err := p.finErr
				if err == nil {
					err, p.sum = io.EOF, p.finSum
				}
				p.termErr = err
				return err
			}
			select {
			case <-slot.ready:
			case <-p.stop:
				p.termErr = errReaderClosed
				return p.termErr
			}
			if slot.err != nil {
				p.termErr = slot.err
				return p.termErr
			}
			p.cur, p.curi = slot, 0
		case <-p.stop:
			p.termErr = errReaderClosed
			return p.termErr
		}
	}
}

// Stats returns the block accounting so far. It is safe to call
// concurrently with Next, and final once Next has returned io.EOF.
func (p *ParallelBlockReader) Stats() BlockStats { return p.st.snapshot() }

// Digest returns the sha256 (hex) of the whole file — every byte from
// offset 0 to EOF, as the producer read them — once Next has returned
// io.EOF. It is empty before that and stays empty when the pass ended
// any other way (a read error, truncation mid-structure, a structural
// decode error, Close before EOF): a digest is only ever reported for
// bytes that were all read. A footerless file that ends cleanly on a
// frame boundary does reach io.EOF and so has a digest — it is the
// sha256 of the file as it stands — while Stats().Truncated also flags
// it; a caller for whom a missing footer means missing data checks both.
// Call it from the goroutine that calls Next.
func (p *ParallelBlockReader) Digest() string { return p.sum }

// Close stops the pipeline and releases its goroutines. It does not
// close the underlying reader.
func (p *ParallelBlockReader) Close() error {
	p.closeOnce.Do(func() { close(p.stop) })
	return nil
}

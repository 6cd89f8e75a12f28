// Package segment implements disk-backed relation storage: immutable,
// CRC-checksummed, block-indexed segment files that serve tuples to the
// engine through the relation.TupleSource plug point, behind a shared
// byte-budgeted LRU block cache. A frozen relation opened over a
// segment reads blocks on demand, so EDBs larger than RAM evaluate
// within a bounded resident set.
//
// File format (all integers uvarint unless noted):
//
//	magic "IDLOGSG1"
//	header: nameLen, name, arity, tuplesPerBlock; crc32 (IEEE, 4B BE)
//	data blocks, each: per tuple, per column:
//	    tag 'i': zigzag varint (int64)
//	    tag 'u': dictionary ordinal
//	  crc32 over the block payload (4B BE)
//	footer:
//	  tupleCount
//	  dictCount; per entry: write-time symbol ID, nameLen, name
//	  blockCount; per block: offset, length (incl. crc), tupleCount
//	  per tuple: 8-byte LE tuple hash
//	  crc32 over the footer (4B BE)
//	trailer: footer offset (8B LE), magic "IDLOGSGE"
//
// Symbols appear once, in the footer dictionary — the intern cache:
// Open interns each name exactly once and block decoding maps
// dictionary ordinals to interned IDs by array index, so no tuple
// decode ever touches the symbol table. The footer's hash array makes
// index construction and fingerprints metadata-only — unless interning
// diverged from write time (tuple hashes mix symbol IDs, which are
// process-assigned), in which case Open detects the mismatch via the
// stored write-time IDs and recomputes the hashes in one streaming
// pass.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"idlog/internal/symbol"
	"idlog/internal/value"
)

const (
	magicHead = "IDLOGSG1"
	magicTail = "IDLOGSGE"

	tagInt = 'i'
	tagSym = 'u'

	// defaultBlockTuples balances decode granularity against index
	// size: ~2k tuples decode in microseconds and keep the per-block
	// footer entry negligible.
	defaultBlockTuples = 2048

	// Corruption clamps, mirroring internal/storage: reject implausible
	// header fields before allocating for them.
	maxNameLen = 1 << 20
	maxArity   = 1 << 16
	// maxTuples keeps positions (plus the table's pos+1 encoding)
	// inside int32.
	maxTuples = 1<<31 - 2

	trailerLen = 16 // 8-byte footer offset + tail magic
)

// ErrCorruptSegment reports a segment file that is corrupted,
// truncated, or not a segment at all; every decode failure wraps it.
var ErrCorruptSegment = errors.New("corrupt or truncated segment")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("segment: %s: %w", fmt.Sprintf(format, args...), ErrCorruptSegment)
}

// blockMeta locates one sealed block inside the file.
type blockMeta struct {
	off    int64
	length int // encoded bytes including the trailing crc32
	count  int
}

// Segment is an open segment file: an immutable relation.TupleSource.
// All read paths are safe for concurrent use. Read errors after a
// successful Open (I/O failure, bit rot detected by a block CRC) panic
// with a descriptive error, since TupleSource accessors have no error
// channel; the evaluator's guard recovers panics into typed evaluation
// errors.
type Segment struct {
	f           *os.File
	path        string
	name        string
	arity       int
	blockTuples int
	count       int
	blocks      []blockMeta
	hashes      []uint64
	interned    []symbol.ID // dictionary ordinal → interned symbol
	cache       *Cache
	id          uint64
}

// Open maps the segment at path, verifying magics, header and footer
// CRCs, and structural bounds. Blocks are verified lazily on first
// read (or eagerly when hashes must be recomputed). A nil cache uses
// the process-wide default.
func Open(path string, cache *Cache) (*Segment, error) {
	if cache == nil {
		cache = defaultCache
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := open(f, path, cache)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func open(f *os.File, path string, cache *Cache) (*Segment, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(len(magicHead))+4+trailerLen {
		return nil, corruptf("%s: %d bytes is too small for a segment", path, size)
	}
	var trailer [trailerLen]byte
	if _, err := f.ReadAt(trailer[:], size-trailerLen); err != nil {
		return nil, corruptf("%s: reading trailer: %v", path, err)
	}
	if string(trailer[8:]) != magicTail {
		return nil, corruptf("%s: bad tail magic %q", path, trailer[8:])
	}
	footOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if footOff < int64(len(magicHead)) || footOff > size-trailerLen-4 {
		return nil, corruptf("%s: footer offset %d out of range", path, footOff)
	}

	// Header.
	hr := &crcByteReader{r: io.NewSectionReader(f, 0, footOff)}
	var head [len(magicHead)]byte
	if _, err := io.ReadFull(hr, head[:]); err != nil {
		return nil, corruptf("%s: reading magic: %v", path, err)
	}
	if string(head[:]) != magicHead {
		return nil, corruptf("%s: bad magic %q (not an IDLOG segment)", path, head)
	}
	hr.crc = 0 // the header CRC covers the fields, not the magic
	name, err := readLenString(hr, maxNameLen)
	if err != nil {
		return nil, corruptf("%s: relation name: %v", path, err)
	}
	arity, err := readBoundedUvarint(hr, maxArity)
	if err != nil {
		return nil, corruptf("%s: arity: %v", path, err)
	}
	blockTuples, err := readBoundedUvarint(hr, maxTuples)
	if err != nil {
		return nil, corruptf("%s: tuples per block: %v", path, err)
	}
	if blockTuples == 0 {
		return nil, corruptf("%s: zero tuples per block", path)
	}
	wantCRC := hr.crc
	var crcBuf [4]byte
	if _, err := io.ReadFull(hr.r, crcBuf[:]); err != nil {
		return nil, corruptf("%s: header checksum: %v", path, err)
	}
	if got := binary.BigEndian.Uint32(crcBuf[:]); got != wantCRC {
		return nil, corruptf("%s: header checksum mismatch (stored %08x, computed %08x)", path, got, wantCRC)
	}

	// Footer: read whole (its size is bounded by the actual file size),
	// verify CRC, then parse out of the byte slice.
	footLen := size - trailerLen - footOff
	foot := make([]byte, footLen)
	if _, err := f.ReadAt(foot, footOff); err != nil {
		return nil, corruptf("%s: reading footer: %v", path, err)
	}
	body := foot[:footLen-4]
	if got, want := binary.BigEndian.Uint32(foot[footLen-4:]), crc32.ChecksumIEEE(body); got != want {
		return nil, corruptf("%s: footer checksum mismatch (stored %08x, computed %08x)", path, got, want)
	}
	fp := &sliceParser{data: body}
	count := fp.uvarint("tuple count", maxTuples)
	nDict := fp.uvarint("dictionary size", maxTuples)
	interned := make([]symbol.ID, 0, min(int(nDict), 1<<16))
	idsMatch := true
	for i := uint64(0); i < nDict && fp.err == nil; i++ {
		writeID := fp.uvarint("dictionary symbol id", 1<<32-1)
		symName := fp.lenString("dictionary name", maxNameLen)
		id := symbol.Intern(symName)
		if uint64(id) != writeID {
			idsMatch = false
		}
		interned = append(interned, id)
	}
	nBlocks := fp.uvarint("block count", maxTuples)
	blocks := make([]blockMeta, 0, min(int(nBlocks), 1<<20))
	var total uint64
	for i := uint64(0); i < nBlocks && fp.err == nil; i++ {
		off := fp.uvarint("block offset", uint64(footOff))
		blen := fp.uvarint("block length", uint64(footOff))
		bcount := fp.uvarint("block tuple count", blockTuples)
		if fp.err != nil {
			break
		}
		if blen < 4 || int64(off)+int64(blen) > footOff {
			fp.err = fmt.Errorf("block %d [%d,+%d) outside data area", i, off, blen)
			break
		}
		if bcount == 0 || (bcount != blockTuples && i != nBlocks-1) {
			fp.err = fmt.Errorf("block %d holds %d tuples, want %d", i, bcount, blockTuples)
			break
		}
		total += bcount
		blocks = append(blocks, blockMeta{off: int64(off), length: int(blen), count: int(bcount)})
	}
	if fp.err == nil && total != count {
		fp.err = fmt.Errorf("blocks hold %d tuples, footer says %d", total, count)
	}
	if fp.err == nil && uint64(len(fp.data)) != 8*count {
		fp.err = fmt.Errorf("hash array holds %d bytes, want %d", len(fp.data), 8*count)
	}
	if fp.err != nil {
		return nil, corruptf("%s: footer: %v", path, fp.err)
	}
	hashes := make([]uint64, count)
	for i := range hashes {
		hashes[i] = binary.LittleEndian.Uint64(fp.data[8*i:])
	}

	s := &Segment{
		f:           f,
		path:        path,
		name:        name,
		arity:       int(arity),
		blockTuples: int(blockTuples),
		count:       int(count),
		blocks:      blocks,
		hashes:      hashes,
		interned:    interned,
		cache:       cache,
		id:          segIDs.Add(1),
	}
	if !idsMatch {
		// This process interned some dictionary symbol under a
		// different ID than the writer's, so the stored hashes (which
		// mix symbol IDs) are stale for this process. One streaming
		// pass recomputes them — and verifies every block CRC up front.
		pos, a := 0, s.arity
		for b, m := range s.blocks {
			vals, err := s.readBlock(b)
			if err != nil {
				return nil, err
			}
			for j := 0; j < m.count; j++ {
				s.hashes[pos] = value.Tuple(vals[j*a : (j+1)*a]).Hash()
				pos++
			}
		}
	}
	return s, nil
}

// Name returns the relation name recorded in the segment.
func (s *Segment) Name() string { return s.name }

// Arity returns the recorded arity.
func (s *Segment) Arity() int { return s.arity }

// Path returns the file path the segment was opened from.
func (s *Segment) Path() string { return s.path }

// Len implements relation.TupleSource.
func (s *Segment) Len() int { return s.count }

// HashAt implements relation.TupleSource from the footer's hash array.
func (s *Segment) HashAt(i int) uint64 { return s.hashes[i] }

// At implements relation.TupleSource, decoding (or fetching from the
// cache) the block containing position i. The tuple is a view into the
// block's value array, capped at the arity, so appending to it copies.
func (s *Segment) At(i int) value.Tuple {
	b := i / s.blockTuples
	j := (i - b*s.blockTuples) * s.arity
	return s.block(b)[j : j+s.arity : j+s.arity]
}

// Scan implements relation.TupleSource, streaming [lo, hi)
// block-at-a-time through the cache.
func (s *Segment) Scan(lo, hi int, fn func(pos int, t value.Tuple) bool) bool {
	if hi < 0 || hi > s.count {
		hi = s.count
	}
	if lo < 0 {
		lo = 0
	}
	a := s.arity
	for pos := lo; pos < hi; {
		b := pos / s.blockTuples
		vals := s.block(b)
		base := b * s.blockTuples
		end := min(base+s.blocks[b].count, hi)
		for ; pos < end; pos++ {
			j := (pos - base) * a
			if !fn(pos, vals[j:j+a:j+a]) {
				return false
			}
		}
	}
	return true
}

// block returns the values of block b, count·arity of them in tuple
// order, consulting the shared cache.
func (s *Segment) block(b int) []value.Value {
	k := ckey{seg: s.id, block: b}
	if vals, ok := s.cache.get(k); ok {
		return vals
	}
	vals, err := s.readBlock(b)
	if err != nil {
		// TupleSource has no error channel; the evaluator's guard
		// converts this panic into a typed evaluation error.
		panic(err)
	}
	s.cache.put(k, vals, blockBytes(len(vals)))
	return vals
}

// readBlock reads and CRC-verifies block b from disk.
func (s *Segment) readBlock(b int) ([]value.Value, error) {
	m := s.blocks[b]
	raw := make([]byte, m.length)
	if _, err := s.f.ReadAt(raw, m.off); err != nil {
		return nil, fmt.Errorf("segment %s: block %d: %w", s.path, b, err)
	}
	body := raw[:m.length-4]
	if got, want := binary.BigEndian.Uint32(raw[m.length-4:]), crc32.ChecksumIEEE(body); got != want {
		return nil, corruptf("%s: block %d checksum mismatch (stored %08x, computed %08x)", s.path, b, got, want)
	}
	vals, err := decodeBlock(body, s.arity, m.count, s.interned)
	if err != nil {
		return nil, corruptf("%s: block %d: %v", s.path, b, err)
	}
	return vals, nil
}

// Close closes the file and evicts the segment's blocks from the cache.
func (s *Segment) Close() error {
	s.cache.drop(s.id)
	return s.f.Close()
}

// decodeBlock decodes count tuples of the given arity from data into
// one flat array of count·arity values, tuple after tuple, resolving
// dictionary ordinals through syms. The array holds no pointers, so a
// cached block costs the garbage collector nothing to scan.
func decodeBlock(data []byte, arity, count int, syms []symbol.ID) ([]value.Value, error) {
	vals := make([]value.Value, count*arity)
	pos := 0
	for j := range vals {
		if pos >= len(data) {
			return nil, fmt.Errorf("tuple %d: truncated", j/arity)
		}
		tag := data[pos]
		pos++
		switch tag {
		case tagInt:
			n, k := binary.Varint(data[pos:])
			if k <= 0 {
				return nil, fmt.Errorf("tuple %d: bad varint", j/arity)
			}
			pos += k
			vals[j] = value.Int(n)
		case tagSym:
			idx, k := binary.Uvarint(data[pos:])
			if k <= 0 {
				return nil, fmt.Errorf("tuple %d: bad dictionary ordinal", j/arity)
			}
			pos += k
			if idx >= uint64(len(syms)) {
				return nil, fmt.Errorf("tuple %d: dictionary ordinal %d out of range", j/arity, idx)
			}
			vals[j] = value.Sym(syms[idx])
		default:
			return nil, fmt.Errorf("tuple %d: bad tag %q", j/arity, tag)
		}
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%d trailing bytes after last tuple", len(data)-pos)
	}
	return vals, nil
}

// crcByteReader reads from an io.Reader while accumulating a CRC-32 and
// satisfying io.ByteReader for varint decoding.
type crcByteReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcByteReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

func (c *crcByteReader) ReadByte() (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(c.r, b[:]); err != nil {
		return 0, err
	}
	c.crc = crc32.Update(c.crc, crc32.IEEETable, b[:])
	return b[0], nil
}

// readBoundedUvarint reads a uvarint and rejects values above bound.
func readBoundedUvarint(r io.ByteReader, bound uint64) (uint64, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	if n > bound {
		return 0, fmt.Errorf("implausible value %d (max %d)", n, bound)
	}
	return n, nil
}

// readLenString reads a uvarint-prefixed string with a length clamp.
func readLenString(r *crcByteReader, maxLen uint64) (string, error) {
	n, err := readBoundedUvarint(r, maxLen)
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// sliceParser cursors over a byte slice with sticky errors and bounds.
type sliceParser struct {
	data []byte
	err  error
}

func (p *sliceParser) uvarint(what string, bound uint64) uint64 {
	if p.err != nil {
		return 0
	}
	n, k := binary.Uvarint(p.data)
	if k <= 0 {
		p.err = fmt.Errorf("%s: bad varint", what)
		return 0
	}
	if n > bound {
		p.err = fmt.Errorf("%s: implausible value %d (max %d)", what, n, bound)
		return 0
	}
	p.data = p.data[k:]
	return n
}

func (p *sliceParser) lenString(what string, maxLen uint64) string {
	n := p.uvarint(what, maxLen)
	if p.err != nil {
		return ""
	}
	if uint64(len(p.data)) < n {
		p.err = fmt.Errorf("%s: truncated (%d of %d bytes)", what, len(p.data), n)
		return ""
	}
	s := string(p.data[:n])
	p.data = p.data[n:]
	return s
}

package segment

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"idlog/internal/symbol"
	"idlog/internal/value"
)

// Writer streams one relation into a segment file. Tuples are encoded
// into fixed-tuple-count blocks that are written (and CRC-sealed) as
// they fill, so the writer's memory is one undecoded block plus the
// per-tuple metadata that ends up in the footer (8-byte hash and a
// hash→position slot per tuple) — never the relation itself. Add
// deduplicates exactly: a seen hash triggers a read-back of the stored
// tuple and a full Tuple.Equal check, so genuine 64-bit collisions
// store both tuples rather than silently dropping one.
type Writer struct {
	f           *os.File
	name        string
	arity       int
	blockTuples int

	buf  []byte        // current block, encoded
	cur  []value.Value // current block's values, tuple after tuple (serves read-back)
	ncur int           // tuples in the current block

	blocks []blockMeta
	hashes []uint64
	seen   map[uint64]int32   // tuple hash → first position
	more   map[uint64][]int32 // further positions on true hash collisions

	dictIdx map[symbol.ID]uint32 // symbol → dictionary ordinal
	dictIDs []symbol.ID          // dictionary ordinal → symbol

	off      int64 // write offset of the next block
	finished bool
}

// Create opens path for writing and emits the segment header. The
// caller must call Finish (or Abort) exactly once.
func Create(path, name string, arity int) (*Writer, error) {
	if arity < 0 || arity > maxArity {
		return nil, fmt.Errorf("segment %s: arity %d out of range", name, arity)
	}
	if len(name) > maxNameLen {
		return nil, fmt.Errorf("segment: relation name of %d bytes too long", len(name))
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		f:           f,
		name:        name,
		arity:       arity,
		blockTuples: defaultBlockTuples,
		seen:        make(map[uint64]int32),
		dictIdx:     make(map[symbol.ID]uint32),
	}
	var head []byte
	head = binary.AppendUvarint(head, uint64(len(name)))
	head = append(head, name...)
	head = binary.AppendUvarint(head, uint64(arity))
	head = binary.AppendUvarint(head, uint64(w.blockTuples))
	crc := crc32.ChecksumIEEE(head)
	head = binary.BigEndian.AppendUint32(head, crc)
	if _, err := f.WriteString(magicHead); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	if _, err := f.Write(head); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	w.off = int64(len(magicHead) + len(head))
	return w, nil
}

// Len reports the number of distinct tuples added so far.
func (w *Writer) Len() int { return len(w.hashes) }

// Arity reports the writer's column count.
func (w *Writer) Arity() int { return w.arity }

// Add appends t if it is not already in the segment, reporting whether
// it was added.
func (w *Writer) Add(t value.Tuple) (bool, error) {
	if w.finished {
		return false, fmt.Errorf("segment %s: add after Finish", w.name)
	}
	if len(t) != w.arity {
		return false, fmt.Errorf("segment %s: adding arity-%d tuple to arity-%d segment", w.name, len(t), w.arity)
	}
	if len(w.hashes) >= maxTuples {
		return false, fmt.Errorf("segment %s: more than %d tuples", w.name, maxTuples)
	}
	h := t.Hash()
	if pos, ok := w.seen[h]; ok {
		prev, err := w.tupleAt(int(pos))
		if err != nil {
			return false, err
		}
		if prev.Equal(t) {
			return false, nil
		}
		// A true 64-bit collision: check the (vanishingly rare) chain,
		// then store the new tuple alongside.
		for _, p := range w.more[h] {
			prev, err := w.tupleAt(int(p))
			if err != nil {
				return false, err
			}
			if prev.Equal(t) {
				return false, nil
			}
		}
		if w.more == nil {
			w.more = make(map[uint64][]int32)
		}
		w.more[h] = append(w.more[h], int32(len(w.hashes)))
	} else {
		w.seen[h] = int32(len(w.hashes))
	}
	for _, v := range t {
		if v.IsInt() {
			w.buf = append(w.buf, tagInt)
			w.buf = binary.AppendVarint(w.buf, v.Num)
		} else {
			idx, ok := w.dictIdx[v.Sym]
			if !ok {
				idx = uint32(len(w.dictIDs))
				w.dictIdx[v.Sym] = idx
				w.dictIDs = append(w.dictIDs, v.Sym)
			}
			w.buf = append(w.buf, tagSym)
			w.buf = binary.AppendUvarint(w.buf, uint64(idx))
		}
	}
	w.cur = append(w.cur, t...)
	w.ncur++
	w.hashes = append(w.hashes, h)
	if w.ncur >= w.blockTuples {
		if err := w.flushBlock(); err != nil {
			return false, err
		}
	}
	return true, nil
}

// AddUnique appends t without the duplicate check, for callers whose
// input is already a set (a Relation being checkpointed). It skips the
// hash→position bookkeeping entirely, so it must not be mixed with Add
// on the same writer.
func (w *Writer) AddUnique(t value.Tuple) error {
	if w.finished {
		return fmt.Errorf("segment %s: add after Finish", w.name)
	}
	if len(t) != w.arity {
		return fmt.Errorf("segment %s: adding arity-%d tuple to arity-%d segment", w.name, len(t), w.arity)
	}
	if len(w.hashes) >= maxTuples {
		return fmt.Errorf("segment %s: more than %d tuples", w.name, maxTuples)
	}
	for _, v := range t {
		if v.IsInt() {
			w.buf = append(w.buf, tagInt)
			w.buf = binary.AppendVarint(w.buf, v.Num)
		} else {
			idx, ok := w.dictIdx[v.Sym]
			if !ok {
				idx = uint32(len(w.dictIDs))
				w.dictIdx[v.Sym] = idx
				w.dictIDs = append(w.dictIDs, v.Sym)
			}
			w.buf = append(w.buf, tagSym)
			w.buf = binary.AppendUvarint(w.buf, uint64(idx))
		}
	}
	w.cur = append(w.cur, t...)
	w.ncur++
	w.hashes = append(w.hashes, t.Hash())
	if w.ncur >= w.blockTuples {
		return w.flushBlock()
	}
	return nil
}

// tupleAt fetches the tuple at position pos for duplicate checking:
// from the in-flight block when recent, otherwise read back from the
// file through the reader's block decoder.
func (w *Writer) tupleAt(pos int) (value.Tuple, error) {
	vals := w.cur
	first := len(w.hashes) - w.ncur
	if pos < first {
		b := pos / w.blockTuples
		m := w.blocks[b]
		raw := make([]byte, m.length-4) // payload without the CRC we just wrote
		if _, err := w.f.ReadAt(raw, m.off); err != nil {
			return nil, err
		}
		var err error
		if vals, err = decodeBlock(raw, w.arity, m.count, w.dictIDs); err != nil {
			return nil, err
		}
		first = b * w.blockTuples
	}
	j := (pos - first) * w.arity
	return vals[j : j+w.arity : j+w.arity], nil
}

// flushBlock seals the current block with its CRC and writes it out.
func (w *Writer) flushBlock() error {
	if w.ncur == 0 {
		return nil
	}
	crc := crc32.ChecksumIEEE(w.buf)
	w.buf = binary.BigEndian.AppendUint32(w.buf, crc)
	if _, err := w.f.WriteAt(w.buf, w.off); err != nil {
		return err
	}
	w.blocks = append(w.blocks, blockMeta{off: w.off, length: len(w.buf), count: w.ncur})
	w.off += int64(len(w.buf))
	w.buf = w.buf[:0]
	w.cur, w.ncur = w.cur[:0], 0
	return nil
}

// Finish flushes the last block, writes the footer (tuple count, symbol
// dictionary with write-time IDs, block index, per-tuple hash array)
// and trailer, syncs, and closes the file.
func (w *Writer) Finish() error {
	if w.finished {
		return fmt.Errorf("segment %s: Finish twice", w.name)
	}
	w.finished = true
	if err := w.flushBlock(); err != nil {
		w.f.Close()
		return err
	}
	footOff := w.off
	if _, err := w.f.Seek(footOff, 0); err != nil {
		w.f.Close()
		return err
	}
	bw := bufio.NewWriter(w.f)
	cw := &crcTee{w: bw}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(n uint64) {
		k := binary.PutUvarint(scratch[:], n)
		cw.Write(scratch[:k])
	}
	putUvarint(uint64(len(w.hashes)))
	putUvarint(uint64(len(w.dictIDs)))
	for _, id := range w.dictIDs {
		name := symbol.Name(id)
		putUvarint(uint64(id))
		putUvarint(uint64(len(name)))
		cw.Write([]byte(name))
	}
	putUvarint(uint64(len(w.blocks)))
	for _, m := range w.blocks {
		putUvarint(uint64(m.off))
		putUvarint(uint64(m.length))
		putUvarint(uint64(m.count))
	}
	var h8 [8]byte
	for _, h := range w.hashes {
		binary.LittleEndian.PutUint64(h8[:], h)
		cw.Write(h8[:])
	}
	binary.BigEndian.PutUint32(scratch[:4], cw.crc)
	bw.Write(scratch[:4])
	// Trailer: footer offset + tail magic, the fixed-size anchor Open
	// reads first.
	binary.LittleEndian.PutUint64(h8[:], uint64(footOff))
	bw.Write(h8[:])
	bw.WriteString(magicTail)
	if err := bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Abort discards the partially written file.
func (w *Writer) Abort() {
	if !w.finished {
		w.finished = true
		name := w.f.Name()
		w.f.Close()
		os.Remove(name)
	}
}

// crcTee accumulates a CRC-32 over everything written through it.
type crcTee struct {
	w   *bufio.Writer
	crc uint32
}

func (c *crcTee) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

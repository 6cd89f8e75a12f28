package wal

// Replication stream framing. A primary ships its log to followers as
// a byte stream of typed frames; entry frames reuse the exact on-disk
// entry encoding (length, payload-with-LSN, CRC-32), so the stream
// inherits the log's integrity checking — a frame torn by a dying
// connection fails its checksum or length read and surfaces as
// ErrTornStream, never as a half-applied mutation.
//
//	'E' <entry bytes>      one replicated mutation (EncodeEntry)
//	'H' <uvarint lastLSN>  heartbeat: primary is alive at lastLSN
//	'S' <uvarint lastLSN>  end of stream: primary is shutting down
//	                       cleanly; resume later from your applied LSN
//	'R' <uvarint startLSN> resync: the primary no longer has the
//	                       follower's position (log truncated by a
//	                       checkpoint); take a snapshot and re-stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame types.
const (
	FrameEntry     byte = 'E'
	FrameHeartbeat byte = 'H'
	FrameEOS       byte = 'S'
	FrameResync    byte = 'R'
)

// ErrTornStream reports a replication stream that died mid-frame: a
// short read or a checksum mismatch. The follower drops the partial
// frame whole and reconnects from its last applied LSN.
var ErrTornStream = errors.New("wal: torn replication stream")

// AppendEntryFrame appends an 'E' frame carrying rec (rec.LSN
// included) to b.
func AppendEntryFrame(b []byte, rec Record) []byte {
	b = append(b, FrameEntry)
	return append(b, EncodeEntry(rec)...)
}

// AppendControlFrame appends an 'H'/'S'/'R' frame carrying lsn to b.
func AppendControlFrame(b []byte, typ byte, lsn uint64) []byte {
	b = append(b, typ)
	return appendUvarint(b, lsn)
}

// Frame is one decoded stream frame. Entry frames carry Rec (with
// Rec.LSN set and mirrored in LSN); control frames carry only LSN.
type Frame struct {
	Type byte
	LSN  uint64
	Rec  Record
}

// StreamReader decodes frames from a replication stream.
type StreamReader struct {
	br *bufio.Reader
}

// NewStreamReader wraps r for frame decoding.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{br: bufio.NewReader(r)}
}

// Next reads one frame. io.EOF means the stream closed cleanly BETWEEN
// frames; a stream dying inside a frame returns ErrTornStream.
func (s *StreamReader) Next() (Frame, error) {
	typ, err := s.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("%w: %v", ErrTornStream, err)
	}
	switch typ {
	case FrameHeartbeat, FrameEOS, FrameResync:
		lsn, err := binary.ReadUvarint(s.br)
		if err != nil {
			return Frame{}, fmt.Errorf("%w: truncated control frame: %v", ErrTornStream, err)
		}
		return Frame{Type: typ, LSN: lsn}, nil
	case FrameEntry:
		plen, err := binary.ReadUvarint(s.br)
		if err != nil {
			return Frame{}, fmt.Errorf("%w: truncated entry length: %v", ErrTornStream, err)
		}
		if plen > maxPayload {
			return Frame{}, fmt.Errorf("%w: implausible entry length %d", ErrTornStream, plen)
		}
		// Read through a limit rather than into a buffer of the claimed
		// size: a corrupt length must not cost its allocation before the
		// stream runs dry.
		buf, err := io.ReadAll(io.LimitReader(s.br, int64(plen)+4))
		if err == nil && uint64(len(buf)) < plen+4 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return Frame{}, fmt.Errorf("%w: truncated entry: %v", ErrTornStream, err)
		}
		payload := buf[:plen]
		want := binary.BigEndian.Uint32(buf[plen:])
		if crc32.ChecksumIEEE(payload) != want {
			return Frame{}, fmt.Errorf("%w: entry checksum mismatch", ErrTornStream)
		}
		rec, err := decodePayload(payload, 2)
		if err != nil {
			return Frame{}, fmt.Errorf("%w: %v", ErrTornStream, err)
		}
		return Frame{Type: FrameEntry, LSN: rec.LSN, Rec: rec}, nil
	default:
		return Frame{}, fmt.Errorf("%w: unknown frame type %q", ErrTornStream, typ)
	}
}

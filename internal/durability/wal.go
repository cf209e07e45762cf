package durability

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// WAL record framing. Each record is
//
//	[4-byte little-endian frame length][4-byte CRC32 (IEEE)][8-byte LSN][payload]
//
// where the frame length counts the LSN and payload bytes and the CRC
// covers them. A record whose length field is implausible, whose bytes run
// past the end of the file, or whose CRC fails marks the end of the valid
// log: everything from there on is a torn tail from a crash mid-append and
// is truncated on recovery.
const (
	frameHeaderSize = 8       // length + crc
	lsnSize         = 8       // sequence number inside the frame
	maxRecordSize   = 1 << 20 // sanity cap on one payload
	maxFrameLen     = lsnSize + maxRecordSize
)

// Record is one decoded WAL entry: a monotonically increasing log sequence
// number and an opaque payload (the service stores JSON-encoded operations).
type Record struct {
	LSN     uint64
	Payload []byte
}

// AppendFrame appends the canonical encoding of one record to buf and
// returns the extended slice. It is the single encoder: the writer, the
// recovery path, and the fuzz target all agree on it byte for byte.
func AppendFrame(buf []byte, lsn uint64, payload []byte) []byte {
	// The header is built in buf itself: a local array would escape
	// through the checksum call and cost an allocation per record.
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(lsnSize+len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, 0) // the CRC, set below
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	crc := crc32.ChecksumIEEE(buf[start+frameHeaderSize:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(buf[start+4:], crc)
	return append(buf, payload...)
}

// DecodeRecords scans data for well-formed records and returns them along
// with the byte length of the valid prefix. Decoding never fails: the
// first zero-length, oversized, truncated, or CRC-mismatched frame — and
// any LSN that does not strictly increase — simply ends the valid prefix,
// which is exactly the recovery semantics for a log whose tail was torn by
// a crash.
func DecodeRecords(data []byte) (recs []Record, valid int64) {
	off := int64(0)
	var lastLSN uint64
	for int64(len(data))-off >= frameHeaderSize+lsnSize {
		frameLen := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		if frameLen < lsnSize || frameLen > maxFrameLen {
			return recs, off
		}
		if off+frameHeaderSize+frameLen > int64(len(data)) {
			return recs, off
		}
		body := data[off+frameHeaderSize : off+frameHeaderSize+frameLen]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
			return recs, off
		}
		lsn := binary.LittleEndian.Uint64(body[:lsnSize])
		if len(recs) > 0 && lsn <= lastLSN {
			return recs, off
		}
		payload := make([]byte, frameLen-lsnSize)
		copy(payload, body[lsnSize:])
		recs = append(recs, Record{LSN: lsn, Payload: payload})
		lastLSN = lsn
		off += frameHeaderSize + frameLen
	}
	return recs, off
}

// wal is the append side of the log. It tracks the last known-good file
// length so that a failed append (short write, fsync error) can be healed
// by truncating back to the record boundary before the next write.
type wal struct {
	fs   FS
	f    File
	path string

	nextLSN uint64
	good    int64 // file length after the last durable record
	damaged bool  // a failed append may have left partial bytes past good

	frame []byte // the record being appended, reused across appends
}

// openWAL opens (creating if needed) the log for appending after `valid`
// bytes of well-formed records, truncating any torn tail beyond them.
func openWAL(fsys FS, path string, valid int64, nextLSN uint64) (*wal, error) {
	f, err := fsys.OpenFile(path, writeFlags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durability: open wal %s: %w", path, err)
	}
	if err := f.Truncate(valid); err != nil {
		//qoslint:allow syncerr best-effort close on the error path; the Truncate error is returned
		f.Close()
		return nil, fmt.Errorf("durability: truncate wal %s to %d: %w", path, valid, err)
	}
	return &wal{fs: fsys, f: f, path: path, nextLSN: nextLSN, good: valid}, nil
}

// append writes one record and forces it to stable storage, returning its
// LSN and the number of bytes written. On any error the record is not
// committed: the LSN is not consumed and the file is healed (or marked for
// healing) back to the last good boundary.
func (w *wal) append(payload []byte) (uint64, int, error) {
	if len(payload) > maxRecordSize {
		return 0, 0, fmt.Errorf("durability: record of %d bytes exceeds cap %d", len(payload), maxRecordSize)
	}
	if w.damaged {
		if err := w.heal(); err != nil {
			return 0, 0, err
		}
	}
	w.frame = AppendFrame(w.frame[:0], w.nextLSN, payload)
	frame := w.frame
	if _, err := w.f.Write(frame); err != nil {
		w.damaged = true
		w.heal() // best effort; append stays failed either way
		return 0, 0, fmt.Errorf("durability: wal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.damaged = true
		w.heal()
		return 0, 0, fmt.Errorf("durability: wal fsync: %w", err)
	}
	lsn := w.nextLSN
	w.nextLSN++
	w.good += int64(len(frame))
	return lsn, len(frame), nil
}

// heal cuts the file back to the last record boundary after a failed
// append, so partial bytes never precede later records.
func (w *wal) heal() error {
	if !w.damaged {
		return nil
	}
	if err := w.f.Truncate(w.good); err != nil {
		return fmt.Errorf("durability: wal heal: %w", err)
	}
	w.damaged = false
	return nil
}

// reset truncates the log to empty after its records were folded into a
// durable snapshot. LSNs keep counting across resets.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("durability: wal reset: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durability: wal reset fsync: %w", err)
	}
	w.good = 0
	w.damaged = false
	return nil
}

func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

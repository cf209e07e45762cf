package durability

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// SnapshotVersion is the on-disk snapshot format version. Loading refuses
// anything newer; older versions would be migrated here.
const SnapshotVersion = 1

// Snapshot is the compacted state of the service at one WAL position:
// replaying records with LSN > LSN onto State reconstructs the live state.
type Snapshot struct {
	Version int `json:"version"`
	// LSN is the last WAL record folded into State. Records at or below it
	// are skipped on replay, which makes the snapshot-then-truncate pair
	// crash-safe: a crash between the two merely leaves already-included
	// records in the log.
	LSN uint64 `json:"lsn"`
	// Config fingerprints the engine configuration the state was built
	// under. Recovery refuses a data dir whose fingerprint differs: replay
	// against a different cluster, trace, or policy would silently diverge.
	Config string `json:"config"`
	// State is the owner's serialized state (the service stores its
	// machine journal and session book).
	State json.RawMessage `json:"state"`
}

const (
	snapshotName = "snapshot.json"
	snapshotTmp  = "snapshot.json.tmp"
	walName      = "wal.log"

	writeFlags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
)

// snapshotFile is the encoding side of Snapshot: the same fields in the
// same order, with State holding the owner's value, so one encoder pass
// writes the whole file. Encoding a RawMessage instead would make
// encoding/json scan and compact the already-encoded state a second time;
// its output is compact and HTML-escaped either way, so the bytes match.
type snapshotFile struct {
	Version int    `json:"version"`
	LSN     uint64 `json:"lsn"`
	Config  string `json:"config"`
	State   any    `json:"state"`
}

// writeSnapshot durably replaces the snapshot with s, encoded into buf
// (reused across snapshots): write to a temp file, fsync it, rename over
// the live name, fsync the directory. A crash at any point leaves either
// the old snapshot or the new one, never a torn mix. It returns the size
// of the file written.
func writeSnapshot(fsys FS, dir string, buf *bytes.Buffer, s snapshotFile) (int, error) {
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(s); err != nil {
		return 0, fmt.Errorf("durability: encode snapshot: %w", err)
	}
	// Encode ends the value with a newline that json.Marshal does not.
	data := bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})
	tmp := filepath.Join(dir, snapshotTmp)
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("durability: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		//qoslint:allow syncerr best-effort cleanup; the Write error is returned
		f.Close()
		return 0, fmt.Errorf("durability: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		//qoslint:allow syncerr best-effort cleanup; the Sync error is returned
		f.Close()
		return 0, fmt.Errorf("durability: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("durability: close %s: %w", tmp, err)
	}
	final := filepath.Join(dir, snapshotName)
	if err := fsys.Rename(tmp, final); err != nil {
		return 0, fmt.Errorf("durability: rename %s: %w", tmp, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return 0, fmt.Errorf("durability: fsync dir %s: %w", dir, err)
	}
	return len(data), nil
}

// loadSnapshot reads the current snapshot. ok is false when none exists
// (a fresh data dir). A snapshot that exists but does not parse is a hard
// error: silently starting empty would void every promise it held.
func loadSnapshot(fsys FS, dir string) (*Snapshot, bool, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, snapshotName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("durability: read snapshot: %w", err)
	}
	var s Snapshot
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, false, fmt.Errorf("durability: corrupt snapshot: %w", err)
	}
	if s.Version > SnapshotVersion {
		return nil, false, fmt.Errorf("durability: snapshot version %d newer than supported %d",
			s.Version, SnapshotVersion)
	}
	return &s, true, nil
}

package durability

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
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

// appendSnapshotHead appends the snapshot file's bytes up to its state:
// the envelope fields as json.Marshal of a Snapshot writes them, then the
// state's key.
func appendSnapshotHead(dst []byte, lsn uint64, config string) []byte {
	dst = append(dst, `{"version":`...)
	dst = strconv.AppendInt(dst, SnapshotVersion, 10)
	dst = append(dst, `,"lsn":`...)
	dst = strconv.AppendUint(dst, lsn, 10)
	dst = append(dst, `,"config":`...)
	// A string always encodes; Marshal escapes it as the decoder expects.
	cfg, _ := json.Marshal(config)
	dst = append(dst, cfg...)
	return append(dst, `,"state":`...)
}

// writeSnapshot durably replaces the snapshot with head, the state's parts
// in order and the closing brace: write to a temp file, fsync it, rename
// over the live name, fsync the directory. A crash at any point leaves
// either the old snapshot or the new one, never a torn mix. It returns the
// size of the file written.
func writeSnapshot(fsys FS, dir string, head []byte, state [][]byte) (int, error) {
	tmp := filepath.Join(dir, snapshotTmp)
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("durability: create %s: %w", tmp, err)
	}
	size := len(head) + 1
	_, err = f.Write(head)
	for i := 0; err == nil && i < len(state); i++ {
		_, err = f.Write(state[i])
		size += len(state[i])
	}
	if err == nil {
		_, err = f.Write([]byte{'}'})
	}
	if err != nil {
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
	return size, nil
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

// Package journal is the durability layer under the control plane: an
// append-only write-ahead log of CRC-framed records plus a snapshot store
// with epoch-based compaction. The service layer journals every accepted
// mutation (job creation, task submission, result acks, membership
// counters) before acting on it, so a graspd process killed at any
// instant restarts from `replay(snapshot + journal)` with nothing
// accepted lost and nothing acknowledged repeated.
//
// The format is deliberately minimal. A record frame is
//
//	magic(1) | length(4, LE) | crc32(4, LE, IEEE over payload) | payload
//
// and a journal file is a plain concatenation of frames. A group of
// records appended through AppendBatch is that same concatenation issued
// through one write syscall and covered by one Sync — group commit
// changes the syscall economics, never the format. Recovery scans
// the file and keeps the longest valid prefix: a frame that is cut short,
// fails its CRC, or declares an implausible length ends the replay there,
// and opening the log truncates the file back to the valid prefix — the
// standard torn-tail rule, under which an append interrupted by power
// loss or SIGKILL costs at most the records that were never fsynced.
//
// The Store composes a Log with an atomically replaced snapshot: journal
// files are named by epoch (journal-N), the snapshot records which epoch
// it covers, and compaction writes the new snapshot (tmp + rename +
// directory fsync) before switching appends to the next epoch's journal —
// every crash window leaves either the old snapshot with its complete
// journal or the new snapshot with an empty one.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

const (
	// recordMagic leads every frame; a scan landing on anything else is at
	// a torn or corrupt tail.
	recordMagic = 0xA7
	// headerSize is magic + length + crc.
	headerSize = 9
	// MaxRecord bounds one record's payload; a frame declaring more is
	// treated as corruption (a torn length field would otherwise make the
	// scanner attempt a multi-gigabyte read).
	MaxRecord = 16 << 20
)

// EncodeRecord frames one payload for appending to a journal.
func EncodeRecord(payload []byte) []byte {
	return appendRecord(make([]byte, 0, headerSize+len(payload)), payload)
}

// appendRecord appends one frame to dst and returns the extended slice.
func appendRecord(dst, payload []byte) []byte {
	var hdr [headerSize]byte
	hdr[0] = recordMagic
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	return append(append(dst, hdr[:]...), payload...)
}

// DecodeAll scans data and returns every fully valid record in order plus
// the byte length of the valid prefix. The scan stops — without error —
// at the first frame that is truncated, fails its CRC, declares a payload
// past MaxRecord, or does not start with the magic byte: on a journal
// file those are all the torn-tail condition, and replay keeps the prefix.
func DecodeAll(data []byte) (records [][]byte, valid int) {
	for valid < len(data) {
		rest := data[valid:]
		if len(rest) < headerSize || rest[0] != recordMagic {
			return records, valid
		}
		n := binary.LittleEndian.Uint32(rest[1:5])
		if n > MaxRecord || int(n) > len(rest)-headerSize {
			return records, valid
		}
		payload := rest[headerSize : headerSize+int(n)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[5:9]) {
			return records, valid
		}
		records = append(records, append([]byte(nil), payload...))
		valid += headerSize + int(n)
	}
	return records, valid
}

// Log is one append-only journal file. Create or recover one with
// OpenLog; it is not safe for concurrent use (the owner serialises).
type Log struct {
	f    *os.File
	size int64
}

// OpenLog opens (or creates) the journal at path, replays its valid
// prefix, and truncates any torn tail so the file ends exactly at the
// last whole record. It returns the replayed records and how many tail
// bytes were discarded.
func OpenLog(path string) (l *Log, records [][]byte, dropped int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	records, valid := DecodeAll(data)
	if valid < len(data) {
		dropped = int64(len(data) - valid)
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	return &Log{f: f, size: int64(valid)}, records, dropped, nil
}

// Append writes one framed record. It does not sync; call Sync to make
// the appended records durable.
func (l *Log) Append(payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds the %d cap", len(payload), MaxRecord)
	}
	frame := EncodeRecord(payload)
	if _, err := l.f.Write(frame); err != nil {
		return err
	}
	l.size += int64(len(frame))
	return nil
}

// AppendBatch writes the payloads as consecutive frames through a single
// write syscall — the group-commit fast path. Each payload is framed
// exactly as Append would frame it, so the on-disk bytes are
// indistinguishable from the same records appended one at a time; only
// the syscall count changes. Like Append it does not sync, and a crash
// before Sync is subject to the ordinary torn-tail rule: recovery keeps
// whole-frame prefixes, so a batch cut mid-frame loses that frame and
// everything after it, never a suffix-less middle.
func (l *Log) AppendBatch(payloads [][]byte) error {
	total := 0
	for _, p := range payloads {
		if len(p) > MaxRecord {
			return fmt.Errorf("journal: record of %d bytes exceeds the %d cap", len(p), MaxRecord)
		}
		total += headerSize + len(p)
	}
	if total == 0 {
		return nil
	}
	buf := make([]byte, 0, total)
	for _, p := range payloads {
		buf = appendRecord(buf, p)
	}
	if _, err := l.f.Write(buf); err != nil {
		return err
	}
	l.size += int64(total)
	return nil
}

// Sync flushes appended records to stable storage.
func (l *Log) Sync() error { return l.f.Sync() }

// Size returns the current file length in bytes.
func (l *Log) Size() int64 { return l.size }

// Close closes the underlying file (without syncing).
func (l *Log) Close() error { return l.f.Close() }

// snapshotFile is the on-disk snapshot: the state bytes plus the epoch of
// the journal holding the records after it. The whole thing is wrapped in
// one CRC frame so a corrupt snapshot is detected, not silently replayed.
type snapshotFile struct {
	Epoch int64  `json:"epoch"`
	State []byte `json:"state,omitempty"`
}

// Recovered is what OpenStore replays from disk.
type Recovered struct {
	// Snapshot is the last compacted state (nil when none was ever taken).
	Snapshot []byte
	// Records are the journaled records appended after the snapshot.
	Records [][]byte
	// Dropped counts torn-tail bytes discarded from the journal.
	Dropped int64
}

// Store is a snapshot plus its epoch's journal in one directory. Create
// or recover one with OpenStore; the owner serialises all calls.
type Store struct {
	dir   string
	epoch int64
	log   *Log
}

const (
	snapshotName = "snapshot"
	journalName  = "journal"
)

func journalPath(dir string, epoch int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%d", journalName, epoch))
}

// OpenStore opens (or initialises) the store in dir and replays
// snapshot + journal. Stray files from interrupted compactions — older
// journals, orphaned tmp files — are removed.
func OpenStore(dir string) (*Store, Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovered{}, err
	}
	var rec Recovered
	epoch := int64(0)
	raw, err := os.ReadFile(filepath.Join(dir, snapshotName))
	switch {
	case err == nil:
		frames, valid := DecodeAll(raw)
		if len(frames) != 1 || valid != len(raw) {
			return nil, Recovered{}, fmt.Errorf("journal: snapshot in %s is corrupt", dir)
		}
		var snap snapshotFile
		if err := json.Unmarshal(frames[0], &snap); err != nil {
			return nil, Recovered{}, fmt.Errorf("journal: snapshot in %s: %w", dir, err)
		}
		epoch = snap.Epoch
		rec.Snapshot = snap.State
	case os.IsNotExist(err):
		// Fresh store: epoch 0, no snapshot.
	default:
		return nil, Recovered{}, err
	}

	log, records, dropped, err := OpenLog(journalPath(dir, epoch))
	if err != nil {
		return nil, Recovered{}, err
	}
	rec.Records = records
	rec.Dropped = dropped
	s := &Store{dir: dir, epoch: epoch, log: log}
	if err := s.removeStray(); err != nil {
		log.Close()
		return nil, Recovered{}, err
	}
	return s, rec, nil
}

// removeStray deletes journals from other epochs and leftover tmp files —
// the debris of compactions interrupted by a crash.
func (s *Store) removeStray() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	current := filepath.Base(journalPath(s.dir, s.epoch))
	for _, e := range entries {
		name := e.Name()
		stray := strings.HasSuffix(name, ".tmp")
		if rest, ok := strings.CutPrefix(name, journalName+"-"); ok && name != current {
			if _, err := strconv.ParseInt(rest, 10, 64); err == nil {
				stray = true
			}
		}
		if stray {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Append journals one record (no sync; call Sync).
func (s *Store) Append(payload []byte) error { return s.log.Append(payload) }

// AppendBatch journals a group of records through one write syscall (no
// sync; call Sync once for the whole batch — the group-commit discipline).
func (s *Store) AppendBatch(payloads [][]byte) error { return s.log.AppendBatch(payloads) }

// Sync makes appended records durable.
func (s *Store) Sync() error { return s.log.Sync() }

// JournalSize returns the current journal's length — the compaction
// trigger the owner checks after appends.
func (s *Store) JournalSize() int64 { return s.log.Size() }

// Rotate compacts: state becomes the new snapshot and appends move to a
// fresh journal. The write order — snapshot tmp, fsync, rename, directory
// fsync, then the new journal — means a crash at any step leaves either
// the old snapshot with its complete journal or the new snapshot with an
// empty (or absent, recreated-on-open) journal.
func (s *Store) Rotate(state []byte) error {
	next := s.epoch + 1
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	raw, err := json.Marshal(snapshotFile{Epoch: next, State: state})
	if err != nil {
		return err
	}
	if err := writeFileSync(tmp, EncodeRecord(raw)); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	log, records, _, err := OpenLog(journalPath(s.dir, next))
	if err != nil {
		return err
	}
	if len(records) != 0 {
		// Impossible under the epoch discipline (the file is new), but a
		// stray non-empty future journal must never be silently adopted.
		log.Close()
		return fmt.Errorf("journal: new epoch %d journal is not empty", next)
	}
	old := s.log
	oldPath := journalPath(s.dir, s.epoch)
	s.log = log
	s.epoch = next
	old.Close()
	if err := os.Remove(oldPath); err != nil && !os.IsNotExist(err) {
		return err
	}
	return syncDir(s.dir)
}

// Close closes the store's journal. It does not snapshot; owners wanting
// a final compaction call Rotate first (the graceful-shutdown path).
func (s *Store) Close() error { return s.log.Close() }

// writeFileSync writes data to path and fsyncs it.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

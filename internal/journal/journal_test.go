package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// payloads builds n distinct payloads of varying size, including empty.
func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, i*7%53)
		for k := range p {
			p[k] = byte(i + k)
		}
		out[i] = p
	}
	return out
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var stream []byte
	want := payloads(20)
	for _, p := range want {
		stream = append(stream, EncodeRecord(p)...)
	}
	got, valid := DecodeAll(stream)
	if valid != len(stream) {
		t.Fatalf("valid = %d, want the whole stream (%d)", valid, len(stream))
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// TestParentLayoutJournalReplays pins the on-disk bytes: a journal
// written by earlier releases — the frame below, laid out by hand as
// magic 0xA7, length 5, CRC-32 of "hello", payload — is what EncodeRecord
// still writes, and it replays.
func TestParentLayoutJournalReplays(t *testing.T) {
	golden := []byte{0xA7, 5, 0, 0, 0, 0x86, 0xA6, 0x10, 0x36, 'h', 'e', 'l', 'l', 'o'}
	if got := EncodeRecord([]byte("hello")); !bytes.Equal(got, golden) {
		t.Fatalf("EncodeRecord = % x, want % x", got, golden)
	}
	path := filepath.Join(t.TempDir(), "journal-0")
	if err := os.WriteFile(path, append(golden, golden...), 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, dropped, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 2 || string(recs[0]) != "hello" || string(recs[1]) != "hello" || dropped != 0 {
		t.Fatalf("replayed %q with %d bytes dropped, want two \"hello\" and none", recs, dropped)
	}
}

// TestReadFrame: frames read one at a time from a stream through one
// reused buffer (grown from nothing, keeping the header it already read)
// come back whole, and a corrupt frame wraps ErrCorrupt.
func TestReadFrame(t *testing.T) {
	want := payloads(12)
	var stream []byte
	for _, p := range want {
		stream = append(stream, EncodeRecord(p)...)
	}
	r := bytes.NewReader(stream)
	var buf []byte
	for i, p := range want {
		payload, out, err := ReadFrame(r, buf, MaxRecord)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(payload, p) {
			t.Fatalf("frame %d: payload %v, want %v", i, payload, p)
		}
		buf = out
	}
	if _, _, err := ReadFrame(r, buf, MaxRecord); err != io.EOF {
		t.Fatalf("read past the last frame: %v, want io.EOF", err)
	}

	frame := EncodeRecord([]byte("payload"))
	for name, mutate := range map[string]func([]byte){
		"magic":  func(f []byte) { f[0] = 'G' },
		"length": func(f []byte) { f[1] = 0xFF },
		"crc":    func(f []byte) { f[len(f)-1] ^= 0xFF },
	} {
		bad := append([]byte(nil), frame...)
		mutate(bad)
		if _, _, err := ReadFrame(bytes.NewReader(bad), nil, 64); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ReadFrame err = %v, want ErrCorrupt", name, err)
		}
	}
	if _, _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-1]), nil, 64); err != io.ErrUnexpectedEOF {
		t.Errorf("short frame: ReadFrame err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestTornTailEveryCut truncates a multi-record stream at every possible
// byte offset: the decode must always recover exactly the records whose
// frames fit entirely within the cut.
func TestTornTailEveryCut(t *testing.T) {
	want := payloads(8)
	var stream []byte
	ends := make([]int, 0, len(want)) // frame end offsets
	for _, p := range want {
		stream = append(stream, EncodeRecord(p)...)
		ends = append(ends, len(stream))
	}
	for cut := 0; cut <= len(stream); cut++ {
		whole := 0
		for _, e := range ends {
			if e <= cut {
				whole++
			}
		}
		got, valid := DecodeAll(stream[:cut])
		if len(got) != whole {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), whole)
		}
		wantValid := 0
		if whole > 0 {
			wantValid = ends[whole-1]
		}
		if valid != wantValid {
			t.Fatalf("cut %d: valid = %d, want %d", cut, valid, wantValid)
		}
	}
}

// TestAppendBatchMatchesAppend proves batching is a pure syscall
// optimisation: the same payloads written one record per AppendBatch and
// in grouped batches must produce byte-identical files and identical Size
// accounting.
func TestAppendBatchMatchesAppend(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(12)

	one := filepath.Join(dir, "one")
	l1, _, _, err := OpenLog(one)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range recs {
		if err := l1.AppendBatch([][]byte{p}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l1.Sync(); err != nil {
		t.Fatal(err)
	}
	size1 := l1.Size()
	l1.Close()

	batch := filepath.Join(dir, "batch")
	l2, _, _, err := OpenLog(batch)
	if err != nil {
		t.Fatal(err)
	}
	// Split the payloads across three batches (including an empty one) to
	// cover batch boundaries.
	for _, group := range [][][]byte{recs[:5], {}, recs[5:]} {
		if err := l2.AppendBatch(group); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	if l2.Size() != size1 {
		t.Fatalf("batch Size = %d, per-record Size = %d", l2.Size(), size1)
	}
	l2.Close()

	b1, err := os.ReadFile(one)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("batch file differs from per-record file (%d vs %d bytes)", len(b2), len(b1))
	}
}

// TestAppendBatchRejectsOversize: one oversized payload anywhere in the
// batch rejects the whole batch before any byte reaches the file.
func TestAppendBatchRejectsOversize(t *testing.T) {
	l, _, _, err := OpenLog(filepath.Join(t.TempDir(), "journal-0"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	big := make([]byte, MaxRecord+1)
	if err := l.AppendBatch([][]byte{[]byte("ok"), big}); err == nil {
		t.Fatal("oversize record in a batch accepted")
	}
	if l.Size() != 0 {
		t.Fatalf("size = %d after a rejected batch, want 0", l.Size())
	}
}

// TestAppendBatchTornTailEveryCut is the crash-between-append-and-sync
// property for the group path: a batch appended but cut at ANY byte offset
// (what a crash before the batch's single fsync may leave behind) must
// recover to exactly the whole frames before the cut — synced records
// before the batch always survive, batch records are observable only as a
// frame-aligned prefix, and the log is truncated and re-appendable.
func TestAppendBatchTornTailEveryCut(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref")
	l, _, _, err := OpenLog(ref)
	if err != nil {
		t.Fatal(err)
	}
	// Two synced records, then one batch of six that never gets its Sync.
	pre := [][]byte{[]byte("synced-1"), []byte("synced-2")}
	for _, p := range pre {
		if err := l.AppendBatch([][]byte{p}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	preSize := l.Size()
	batch := payloads(6)
	if err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	l.Close()
	stream, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Frame end offsets of the batch records within the file.
	ends := []int{int(preSize)}
	off := int(preSize)
	for _, p := range batch {
		off += headerSize + len(p)
		ends = append(ends, off)
	}
	if off != len(stream) {
		t.Fatalf("frame accounting off: %d != %d", off, len(stream))
	}

	for cut := int(preSize); cut <= len(stream); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d", cut))
		if err := os.WriteFile(path, stream[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole := 0
		for _, e := range ends[1:] {
			if e <= cut {
				whole++
			}
		}
		l2, recs, dropped, err := OpenLog(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) != len(pre)+whole {
			t.Fatalf("cut %d: recovered %d records, want %d synced + %d whole batch frames",
				cut, len(recs), len(pre), whole)
		}
		for i, p := range batch[:whole] {
			if !bytes.Equal(recs[len(pre)+i], p) {
				t.Fatalf("cut %d: batch record %d corrupted", cut, i)
			}
		}
		wantSize := ends[whole]
		if dropped != int64(cut-wantSize) {
			t.Fatalf("cut %d: dropped %d bytes, want %d", cut, dropped, cut-wantSize)
		}
		// The truncated log must accept a fresh batch cleanly.
		if err := l2.AppendBatch([][]byte{[]byte("after")}); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if err := l2.Sync(); err != nil {
			t.Fatal(err)
		}
		l2.Close()
		_, recs2, _, err := OpenLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs2) != len(pre)+whole+1 || string(recs2[len(recs2)-1]) != "after" {
			t.Fatalf("cut %d: post-recovery append lost (%d records)", cut, len(recs2))
		}
	}
}

// TestCorruptionStopsReplay flips one byte in the middle of a stream:
// records before the corrupted frame replay, everything after is dropped.
func TestCorruptionStopsReplay(t *testing.T) {
	want := payloads(6)
	var stream []byte
	ends := make([]int, 0, len(want))
	for _, p := range want {
		stream = append(stream, EncodeRecord(p)...)
		ends = append(ends, len(stream))
	}
	// Corrupt a payload byte inside the 4th frame (index 3); frames 0..2
	// survive. Frame 3's payload is non-empty by construction (3*7%53=21).
	stream[ends[2]+headerSize] ^= 0xFF
	got, valid := DecodeAll(stream)
	if len(got) != 3 {
		t.Fatalf("recovered %d records past corruption, want 3", len(got))
	}
	if valid != ends[2] {
		t.Fatalf("valid = %d, want %d", valid, ends[2])
	}
}

// TestOpenLogTruncatesTornTail writes records plus garbage, reopens, and
// checks the tail is physically truncated and the log re-appendable.
func TestOpenLogTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal-0")
	l, rec, dropped, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 0 || dropped != 0 {
		t.Fatalf("fresh log: %d records, %d dropped", len(rec), dropped)
	}
	for i := 0; i < 5; i++ {
		if err := l.AppendBatch([][]byte{[]byte(fmt.Sprintf("rec-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Simulate a torn append: half a frame of garbage at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := EncodeRecord([]byte("never-synced"))[:7]
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, rec2, dropped2, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2) != 5 {
		t.Fatalf("recovered %d records, want 5", len(rec2))
	}
	if dropped2 != int64(len(torn)) {
		t.Fatalf("dropped = %d, want %d", dropped2, len(torn))
	}
	// The file must now end at the valid prefix and accept new appends
	// cleanly (no garbage between old and new records).
	if err := l2.AppendBatch([][]byte{[]byte("after-recovery")}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	_, rec3, dropped3, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped3 != 0 {
		t.Fatalf("dropped %d bytes on a clean reopen", dropped3)
	}
	if len(rec3) != 6 || string(rec3[5]) != "after-recovery" {
		t.Fatalf("post-recovery append lost: %d records", len(rec3))
	}
}

func TestStoreFreshAndReplay(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Records) != 0 || rec.Dropped != 0 {
		t.Fatalf("fresh store replayed %+v", rec)
	}
	for i := 0; i < 4; i++ {
		if err := s.AppendBatch([][]byte{[]byte(fmt.Sprintf("r%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	_, rec2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Snapshot != nil {
		t.Fatalf("unexpected snapshot %q", rec2.Snapshot)
	}
	if len(rec2.Records) != 4 || string(rec2.Records[3]) != "r3" {
		t.Fatalf("replayed %d records", len(rec2.Records))
	}
}

func TestStoreRotate(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.AppendBatch([][]byte{[]byte("pre-1")})
	s.AppendBatch([][]byte{[]byte("pre-2")})
	s.Sync()
	if err := s.Rotate([]byte(`{"compacted":true}`)); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 0 {
		t.Fatalf("new journal size = %d, want 0", s.Size())
	}
	s.AppendBatch([][]byte{[]byte("post-1")})
	s.Sync()
	s.Close()

	// Only the current journal — epoch 1 — remains on disk.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var journals []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), journalName+"-") {
			journals = append(journals, e.Name())
		}
	}
	if len(journals) != 1 || journals[0] != journalName+"-1" {
		t.Fatalf("journal files on disk = %v, want [%s-1]", journals, journalName)
	}

	_, rec, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Snapshot) != `{"compacted":true}` {
		t.Fatalf("snapshot = %q", rec.Snapshot)
	}
	if len(rec.Records) != 1 || string(rec.Records[0]) != "post-1" {
		t.Fatalf("post-rotate records = %v", rec.Records)
	}
}

// TestStoreCrashWindows hand-constructs the directory states a crash can
// leave mid-rotation and checks each recovers to a consistent view.
func TestStoreCrashWindows(t *testing.T) {
	// Window A: crash after snapshot tmp written, before rename. The old
	// snapshot (none) and journal-0 must win; the tmp is swept.
	t.Run("tmp-not-renamed", func(t *testing.T) {
		dir := t.TempDir()
		s, _, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.AppendBatch([][]byte{[]byte("a")})
		s.Sync()
		s.Close()
		if err := os.WriteFile(filepath.Join(dir, "snapshot.tmp"), []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, rec, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Snapshot != nil || len(rec.Records) != 1 {
			t.Fatalf("recovered %+v, want journal-0 records only", rec)
		}
		if _, err := os.Stat(filepath.Join(dir, "snapshot.tmp")); !os.IsNotExist(err) {
			t.Error("stray snapshot.tmp not swept")
		}
	})

	// Window B: crash after rename, before the new journal exists. The new
	// snapshot wins; journal-1 is created empty on open; stale journal-0 is
	// swept so its pre-compaction records can never replay twice.
	t.Run("renamed-no-new-journal", func(t *testing.T) {
		dir := t.TempDir()
		s, _, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.AppendBatch([][]byte{[]byte("pre")})
		s.Sync()
		s.Close()
		// The snapshot write from Rotate, without the journal switch.
		body, err := json.Marshal(snapshotFile{Epoch: 1, State: []byte(`{"ok":1}`)})
		if err != nil {
			t.Fatal(err)
		}
		raw := EncodeRecord(body)
		if err := os.WriteFile(filepath.Join(dir, "snapshot"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, rec, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if string(rec.Snapshot) != `{"ok":1}` {
			t.Fatalf("snapshot = %q", rec.Snapshot)
		}
		if len(rec.Records) != 0 {
			t.Fatalf("replayed %d stale records past the snapshot", len(rec.Records))
		}
		if _, err := os.Stat(filepath.Join(dir, "journal-0")); !os.IsNotExist(err) {
			t.Error("stale journal-0 not swept")
		}
	})

	// A corrupt snapshot must fail loudly, not replay as empty state.
	t.Run("corrupt-snapshot", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "snapshot"), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenStore(dir); err == nil {
			t.Fatal("corrupt snapshot opened without error")
		}
	})
}

// TestStoreAppendRotateReopenProperty drives a seeded random schedule of
// append / rotate / reopen against an in-memory model: after every reopen
// the replayed (snapshot, records) must equal the model exactly.
func TestStoreAppendRotateReopenProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			s, rec, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			var snapshot []byte // model of the durable snapshot
			var records []string
			next := 0
			check := func(rec Recovered) {
				if string(rec.Snapshot) != string(snapshot) {
					t.Fatalf("snapshot = %q, want %q", rec.Snapshot, snapshot)
				}
				if len(rec.Records) != len(records) {
					t.Fatalf("replayed %d records, want %d", len(rec.Records), len(records))
				}
				for i := range records {
					if string(rec.Records[i]) != records[i] {
						t.Fatalf("record %d = %q, want %q", i, rec.Records[i], records[i])
					}
				}
			}
			check(rec)
			for step := 0; step < 60; step++ {
				switch rng.Intn(5) {
				case 0, 1, 2: // append (synced, so the model includes it)
					p := fmt.Sprintf("p%d", next)
					next++
					if err := s.AppendBatch([][]byte{[]byte(p)}); err != nil {
						t.Fatal(err)
					}
					if err := s.Sync(); err != nil {
						t.Fatal(err)
					}
					records = append(records, p)
				case 3: // rotate: records fold into a new snapshot
					snap := fmt.Sprintf("snap-after-%d", next)
					if err := s.Rotate([]byte(snap)); err != nil {
						t.Fatal(err)
					}
					snapshot = []byte(snap)
					records = records[:0]
				case 4: // reopen and verify replay == model
					s.Close()
					var rec Recovered
					s, rec, err = OpenStore(dir)
					if err != nil {
						t.Fatal(err)
					}
					check(rec)
				}
			}
			s.Close()
			_, rec, err = OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			check(rec)
		})
	}
}

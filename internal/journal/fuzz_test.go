package journal

import (
	"bytes"
	"testing"
)

// FuzzJournalReplay fuzzes the record decoder with arbitrary byte
// streams — the exact input a recovering daemon faces when a crash tore
// the journal's tail or a disk corrupted it. Three invariants must hold
// for any input: the valid prefix never exceeds the data, re-encoding
// the decoded records reproduces the prefix byte-for-byte (so truncating
// to it and replaying again is lossless), and decoding the prefix is
// idempotent. A fourth ties the scanner to the stream reader the wire
// uses: ReadFrame returns the same records, one at a time, and then fails.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeRecord(nil))
	f.Add(EncodeRecord([]byte("one")))
	multi := append(EncodeRecord([]byte("a")), EncodeRecord([]byte("bb"))...)
	multi = append(multi, EncodeRecord([]byte("ccc"))...)
	f.Add(multi)
	f.Add(multi[:len(multi)-3])                                      // torn tail
	f.Add([]byte{recordMagic, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})   // absurd length
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 8}) // bad magic

	f.Fuzz(func(t *testing.T, data []byte) {
		records, valid := DecodeAll(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		var reenc []byte
		for _, r := range records {
			reenc = append(reenc, EncodeRecord(r)...)
		}
		if !bytes.Equal(reenc, data[:valid]) {
			t.Fatalf("re-encoding %d records does not reproduce the %d-byte valid prefix", len(records), valid)
		}
		again, validAgain := DecodeAll(data[:valid])
		if validAgain != valid || len(again) != len(records) {
			t.Fatalf("replay of the valid prefix is not idempotent: %d/%d vs %d/%d",
				validAgain, len(again), valid, len(records))
		}
		for i := range records {
			if !bytes.Equal(again[i], records[i]) {
				t.Fatalf("record %d differs on second decode", i)
			}
		}
		r := bytes.NewReader(data)
		var buf []byte
		for i := range records {
			payload, out, err := ReadFrame(r, buf, MaxRecord)
			if err != nil || !bytes.Equal(payload, records[i]) {
				t.Fatalf("ReadFrame %d: %v, payload differs from DecodeAll's", i, err)
			}
			buf = out
		}
		if valid < len(data) {
			if _, _, err := ReadFrame(r, buf, MaxRecord); err == nil {
				t.Fatalf("ReadFrame accepted the frame DecodeAll stopped at (offset %d)", valid)
			}
		}
	})
}

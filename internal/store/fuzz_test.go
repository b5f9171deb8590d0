package store

import (
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzPackReplay holds the recovery invariant at the byte level: whatever
// the pack contains — real records, a torn tail, binary noise, headers
// that lie about their length — Open must succeed without panicking, and
// every record it keeps must read back with the CRC its header carries
// and end in its newline.
func FuzzPackReplay(f *testing.F) {
	rec := func(data string) string {
		return header(Key([]byte(data)), int64(len(data)), crc32.Checksum([]byte(data), castagnoli)) + data + "\n"
	}
	whole := rec(`{"answer": 42}`) + rec("second\nblob") + rec("")
	for _, s := range []string{
		"",
		whole,
		whole[:len(whole)-5], // torn tail
		whole + "put ",
		rec("x") + "put " + Key([]byte("y")) + " 999999999999 00000000\n", // size past the end
		"put " + Key([]byte("x")) + " +1 00000000\nx\n",                   // non-canonical size
		"\x00\xff\xfe garbage",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "pack")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(kept) > len(raw) || string(kept) != string(raw[:len(kept)]) {
			t.Fatalf("replay rewrote the pack instead of clipping it")
		}
		for key, ext := range s.index {
			data, ok, err := s.Get(key)
			if !ok || err != nil {
				t.Fatalf("kept key %s: ok=%v err=%v", key, ok, err)
			}
			hdr := header(key, ext.size, crc32.Checksum(data, castagnoli))
			start := ext.off - int64(len(hdr))
			if start < 0 || string(kept[start:ext.off]) != hdr || kept[ext.off+ext.size] != '\n' {
				t.Fatalf("kept record %s does not sit between its header, CRC matching, and a newline", key)
			}
		}
	})
}

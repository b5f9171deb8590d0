package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	data := []byte(`{"answer": 42}`)
	key := Key(data)
	if err := s.Put(key, data); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v, %v; want the stored bytes", got, ok, err)
	}
	if _, ok, _ := s.Get(Key([]byte("absent"))); ok {
		t.Fatal("absent key reported present")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != int64(len(data)) {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 entry, %d bytes", st, len(data))
	}
}

func TestPutIsIdempotent(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	data := []byte("blob")
	key := Key(data)
	for i := 0; i < 3; i++ {
		if err := s.Put(key, data); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Entries != 1 || st.Bytes != int64(len(data)) {
		t.Errorf("3 identical puts: stats = %+v, want one entry", st)
	}
}

func TestInvalidKeyRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	for _, bad := range []string{"", "short", "ZZ" + Key([]byte("x"))[2:]} {
		if err := s.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", bad)
		}
	}
}

// TestReopenReplaysIndex is the durability core: a fresh Store on the same
// directory must see every blob, and its Stats() must report the identical
// entry count and byte total (hit/miss counters are per-process).
func TestReopenReplaysIndex(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	var keys []string
	for i := 0; i < 20; i++ {
		data := []byte(fmt.Sprintf("blob-%d", i))
		key := Key(data)
		if err := s.Put(key, data); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	before := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	after := r.Stats()
	if after.Entries != before.Entries || after.Bytes != before.Bytes {
		t.Errorf("reopened stats = %+v, want entries/bytes of %+v", after, before)
	}
	for i, key := range keys {
		data, ok, err := r.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(data) != fmt.Sprintf("blob-%d", i) {
			t.Errorf("key %d after reopen: %q, %v", i, data, ok)
		}
	}
}

// TestPackTornTailRecovers damages the pack's tail in each way a crash
// mid-append or a foreign write can: the replay must keep every whole
// record, clip the file back to the end of the last one, and keep
// appending from there.
func TestPackTornTailRecovers(t *testing.T) {
	a, b := []byte("first"), []byte("second")
	for _, tc := range []struct {
		name string
		// damage rewrites the pack, whose last record (b's) starts at
		// offset last.
		damage func(raw []byte, last int) []byte
		keep   int // records that survive
	}{
		{"header cut", func(raw []byte, last int) []byte { return raw[:last+10] }, 1},
		{"data cut", func(raw []byte, _ int) []byte { return raw[:len(raw)-3] }, 1},
		{"crc mismatch", func(raw []byte, _ int) []byte { raw[len(raw)-2] ^= 1; return raw }, 1},
		{"missing trailing newline", func(raw []byte, _ int) []byte { raw[len(raw)-1] = 'x'; return raw }, 1},
		{"garbage after last record", func(raw []byte, _ int) []byte {
			return append(raw, "not a record\x00\xff\xfe garbage"...)
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			if err := s.Put(Key(a), a); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "pack")
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			last := int(info.Size())
			if err := s.Put(Key(b), b); err != nil {
				t.Fatal(err)
			}
			s.Close()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			whole := map[int]int64{1: int64(last), 2: int64(len(raw))}[tc.keep]
			if err := os.WriteFile(path, tc.damage(raw, last), 0o644); err != nil {
				t.Fatal(err)
			}

			r := mustOpen(t, dir, Options{})
			if st := r.Stats(); st.Entries != int64(tc.keep) {
				t.Fatalf("replay kept %d records, want %d", st.Entries, tc.keep)
			}
			if info, err := os.Stat(path); err != nil || info.Size() != whole {
				t.Fatalf("pack is %v bytes (%v) after replay, want it clipped to %d", info.Size(), err, whole)
			}
			if got, ok, err := r.Get(Key(a)); !ok || err != nil || !bytes.Equal(got, a) {
				t.Fatalf("first blob after replay: %q, %v, %v", got, ok, err)
			}
			// The store keeps appending from the clip: a new put is
			// visible now and after another reopen.
			c := []byte("third")
			if err := r.Put(Key(c), c); err != nil {
				t.Fatal(err)
			}
			r.Close()
			again := mustOpen(t, dir, Options{})
			if st := again.Stats(); st.Entries != int64(tc.keep)+1 {
				t.Fatalf("after a put and a reopen: %d records, want %d", st.Entries, tc.keep+1)
			}
			if got, ok, err := again.Get(Key(c)); !ok || err != nil || !bytes.Equal(got, c) {
				t.Fatalf("put after the clip: %q, %v, %v", got, ok, err)
			}
		})
	}
}

// TestOpenImportsParentLayout upgrades a directory in the earlier layout
// (index.log plus one objects/<aa>/<key> file per blob) to the pack: every
// blob reads back byte-identical, now and after a reopen, and the old
// files are gone. The interrupted case starts from an import a crash cut
// short — one blob already packed, a torn record after it — which the
// next Open must finish without duplicating anything.
func TestOpenImportsParentLayout(t *testing.T) {
	blobs := [][]byte{[]byte(`{"answer": 42}`), []byte("second\nblob"), {}}
	for _, interrupted := range []bool{false, true} {
		t.Run(fmt.Sprintf("interrupted=%v", interrupted), func(t *testing.T) {
			dir := t.TempDir()
			var index strings.Builder
			var total int64
			for _, data := range blobs {
				key := Key(data)
				sub := filepath.Join(dir, "objects", key[:2])
				if err := os.MkdirAll(sub, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(sub, key), data, 0o644); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&index, "put %s %d\n", key, len(data))
				total += int64(len(data))
			}
			for name, data := range map[string]string{"index.log": index.String(), "tmp-123": "partial"} {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if interrupted {
				data := blobs[0]
				rec := header(Key(data), int64(len(data)), crc32.Checksum(data, castagnoli)) + string(data) + "\n"
				if err := os.WriteFile(filepath.Join(dir, "pack"), []byte(rec+"put torn"), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			s := mustOpen(t, dir, Options{})
			var packed int
			for _, data := range blobs {
				packed += len(header(Key(data), int64(len(data)), 0)) + len(data) + 1
			}
			if info, err := os.Stat(filepath.Join(dir, "pack")); err != nil || info.Size() != int64(packed) {
				t.Errorf("pack after import: %v (%v), want exactly one record per blob, %d bytes", info.Size(), err, packed)
			}
			for _, gone := range []string{"index.log", "objects", "tmp-123"} {
				if _, err := os.Stat(filepath.Join(dir, gone)); !os.IsNotExist(err) {
					t.Errorf("%s survived the import (stat: %v)", gone, err)
				}
			}
			s.Close()
			r := mustOpen(t, dir, Options{})
			if st := r.Stats(); st.Entries != int64(len(blobs)) || st.Bytes != total {
				t.Errorf("imported stats = %+v, want %d entries, %d bytes", st, len(blobs), total)
			}
			for _, data := range blobs {
				if got, ok, err := r.Get(Key(data)); !ok || err != nil || !bytes.Equal(got, data) {
					t.Errorf("imported blob %q read back as %q, %v, %v", data, got, ok, err)
				}
			}
		})
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	s.Close()
	if err := s.Put(Key([]byte("x")), []byte("x")); err == nil {
		t.Error("Put on a closed store did not error")
	}
	if _, _, err := s.Get(Key([]byte("x"))); err == nil {
		t.Error("Get on a closed store did not error")
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestKeyIsSHA256Hex(t *testing.T) {
	key := Key([]byte("abc"))
	if key != "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" {
		t.Errorf("Key(abc) = %s", key)
	}
	if !validKey(key) {
		t.Error("Key output fails validKey")
	}
}

// TestConcurrentWritersAndReaders runs puts, gets and probes of
// overlapping keys from several goroutines, then checks the in-memory
// index against a replay of the log it wrote.
func TestConcurrentWritersAndReaders(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	blobs := make([][]byte, 16)
	for i := range blobs {
		blobs[i] = []byte(fmt.Sprintf("blob-%d", i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				data := blobs[(g*7+i)%len(blobs)]
				key := Key(data)
				if i%2 == 0 {
					if err := s.Put(key, data); err != nil {
						t.Error(err)
					}
					continue
				}
				if got, ok, err := s.Get(key); err != nil || (ok && !bytes.Equal(got, data)) {
					t.Errorf("Get = %q, %v, %v", got, ok, err)
				}
				s.Has(key)
			}
		}()
	}
	wg.Wait()
	before := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after := mustOpen(t, dir, Options{}).Stats()
	if after.Entries != before.Entries || after.Bytes != before.Bytes {
		t.Errorf("replayed index %+v, live index was %+v", after, before)
	}
}

// Package store is a content-addressed, disk-backed artifact store: blobs
// keyed by the SHA-256 of the request that produced them, so identical
// computations are deduplicated across process restarts, not just across
// in-flight requests. It is the durable half of the async jobs subsystem
// (internal/jobs journals the work; this package keeps the results) — the
// "compute must be matched by durable, addressable storage" step of the
// ROADMAP, in the spirit of Bell/Gray/Szalay's data-centric balance
// argument.
//
// Layout on disk:
//
//	<dir>/pack   append-only pack file, one record per blob, replayed on Open
//
// A record is a header line followed by the blob and a newline:
//
//	put <key> <size> <crc32c>\n<size bytes>\n
//
// with the size in decimal and the blob's CRC-32C (Castagnoli) as eight
// lowercase hex digits. Put appends one record with one write and one
// fsync, and the synced record is the commit point: no file is created or
// renamed per blob, so durability rests on a single fsync of a single
// file. Replay checks each record's header, length, CRC and trailing
// newline, and clips a torn or garbage tail back to the last whole record
// instead of failing Open, because a crash mid-append is exactly the case
// the checks exist for. The process heap holds only the index (key →
// offset and size in the pack): Get reads the blob with ReadAt, and the OS
// page cache keeps hot records in memory. Stats() exposes
// hits/misses/bytes/entries for /metrics.
//
// A directory in the earlier layout (an index.log beside one
// objects/<aa>/<key> file per blob) is imported into the pack by the first
// Open; see importObjects.
package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Key returns the content address of data: lowercase hex SHA-256.
func Key(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Options tunes a Store. The zero value is production-ready.
type Options struct {
	// Observe, when non-nil, receives the wall time of every Put ("put")
	// and Get ("get") — lock wait included, since that is what a caller
	// experiences. It is called outside the store's mutex and must be
	// safe for concurrent use (the server's feeds atomic histograms).
	Observe func(op string, d time.Duration)
}

// Stats is a point-in-time snapshot of the store's counters, served under
// the store_* keys of /metrics.
type Stats struct {
	// Hits counts Gets answered from the pack.
	Hits int64 `json:"hits"`
	// Misses counts Gets for keys the store does not hold.
	Misses int64 `json:"misses"`
	// Bytes is the total size of all indexed blobs.
	Bytes int64 `json:"bytes"`
	// Entries is the number of indexed blobs.
	Entries int64 `json:"entries"`
}

// castagnoli is the CRC-32C table the record checksums use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxHeaderLen bounds a header line: "put ", a 64-digit key, a space, at
// most 19 size digits, a space, 8 CRC digits and the newline.
const maxHeaderLen = 4 + 64 + 1 + 19 + 1 + 8 + 1

// extent locates one blob in the pack: off is its first byte.
type extent struct{ off, size int64 }

// Store is a content-addressed blob store rooted at one directory. All
// methods are safe for concurrent use. Open one per directory — two Stores
// on the same directory would interleave their appends.
type Store struct {
	dir string

	observe func(op string, d time.Duration)

	// logMu serializes appends to the pack and is held across its fsync;
	// end, the offset just past the last record, is guarded by it. mu
	// guards the in-memory index and is never held across disk I/O, so
	// Has, Get and Stats never wait on a sync. Lock order: logMu, then mu.
	logMu sync.Mutex
	pack  *os.File // append-only handle
	end   int64

	// reader is a read-only handle on the pack, shared by every Get:
	// ReadAt takes no lock and leaves no file offset to race on.
	reader *os.File

	mu     sync.Mutex
	index  map[string]extent
	bytes  int64
	closed bool

	hits, misses atomic.Int64
}

// Open opens (creating if needed) the store rooted at dir, replaying the
// pack. A torn or garbage tail — the signature of a crash mid-append — is
// clipped, not an error. On an empty directory Open issues no fsync.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		observe: opts.Observe,
		index:   make(map[string]extent),
	}
	end, err := s.replay()
	if err != nil {
		return nil, err
	}
	s.end = end
	if s.pack, err = os.OpenFile(s.packPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, fmt.Errorf("store: opening pack: %w", err)
	}
	if s.reader, err = os.Open(s.packPath()); err != nil {
		s.pack.Close()
		return nil, fmt.Errorf("store: opening pack: %w", err)
	}
	if err := s.importObjects(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func (s *Store) packPath() string { return filepath.Join(s.dir, "pack") }

// replay rebuilds the index from the pack and returns the offset just past
// its last whole record. A record that fails any check ends the replay,
// and the file is truncated back to the last whole record so later
// appends start from a clean boundary. Called from Open only.
func (s *Store) replay() (int64, error) {
	f, err := os.Open(s.packPath())
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: opening pack: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("store: stat pack: %w", err)
	}
	size := info.Size()

	// torn reports whether a read error is the tail running out (or a
	// header line that never ends) rather than the disk failing; only the
	// former may be clipped.
	torn := func(err error) bool {
		return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, bufio.ErrBufferFull)
	}
	var good int64 // offset just past the last valid record
	br := bufio.NewReader(f)
	sum := crc32.New(castagnoli)
	for good < size {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if torn(err) {
				break
			}
			return 0, fmt.Errorf("store: reading pack: %w", err)
		}
		key, n, crc, ok := parseHeader(line)
		if !ok {
			break
		}
		hdr := int64(len(line))
		sum.Reset()
		if _, err := io.CopyN(sum, br, n); err != nil {
			if torn(err) {
				break
			}
			return 0, fmt.Errorf("store: reading pack: %w", err)
		}
		if sum.Sum32() != crc {
			break
		}
		if c, err := br.ReadByte(); err != nil || c != '\n' {
			if err != nil && !torn(err) {
				return 0, fmt.Errorf("store: reading pack: %w", err)
			}
			break
		}
		s.add(key, extent{off: good + hdr, size: n})
		good += hdr + n + 1
	}
	if good < size {
		if err := os.Truncate(s.packPath(), good); err != nil {
			return 0, fmt.Errorf("store: clipping torn pack tail: %w", err)
		}
	}
	return good, nil
}

// header renders a record's header line.
func header(key string, size int64, crc uint32) string {
	return fmt.Sprintf("put %s %d %08x\n", key, size, crc)
}

// parseHeader validates one header line, newline included. Only the
// canonical spelling header writes is a record: a torn line, a non-hex
// key, a signed or zero-padded size, or an upper-case CRC is garbage.
func parseHeader(line []byte) (key string, size int64, crc uint32, ok bool) {
	if len(line) > maxHeaderLen {
		return "", 0, 0, false
	}
	f := strings.Split(strings.TrimSuffix(string(line), "\n"), " ")
	if len(f) != 4 || f[0] != "put" || !validKey(f[1]) {
		return "", 0, 0, false
	}
	size, err := strconv.ParseInt(f[2], 10, 64)
	if err != nil || size < 0 {
		return "", 0, 0, false
	}
	crc64, err := strconv.ParseUint(f[3], 16, 32)
	if err != nil || header(f[1], size, uint32(crc64)) != string(line) {
		return "", 0, 0, false
	}
	return f[1], size, uint32(crc64), true
}

// validKey reports whether key is a lowercase-hex SHA-256.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Put stores data under key. Storing an existing key is a no-op (the store
// is content-addressed: same key, same bytes). The record is appended with
// one write and synced with one fsync under logMu, then indexed, so a
// crash at any point leaves either no trace, a torn tail that replay
// clips, or a complete record. Readers never wait on the sync.
func (s *Store) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	if s.observe != nil {
		t0 := time.Now()
		defer func() { s.observe("put", time.Since(t0)) }()
	}
	if _, present, closed := s.lookup(key); closed {
		return fmt.Errorf("store: closed")
	} else if present {
		return nil
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if _, present, closed := s.lookup(key); closed {
		return fmt.Errorf("store: closed")
	} else if present {
		// A concurrent Put of the same key committed it first.
		return nil
	}
	ext, err := s.appendRecord(key, data)
	if err != nil {
		return err
	}
	if err := s.pack.Sync(); err != nil {
		// The record is whole in the page cache; leave it — replay
		// indexes it if it reached the disk, and a retried Put appends a
		// twin that replay skips.
		return fmt.Errorf("store: syncing pack: %w", err)
	}
	s.add(key, ext)
	return nil
}

// appendRecord writes key's record at the end of the pack and returns the
// blob's extent (callers hold logMu, or own the store, as Open does). A
// failed write — ENOSPC mid-record, say — is clipped back to the old end,
// so a partial record cannot sit mid-file and hide every later record from
// replay.
func (s *Store) appendRecord(key string, data []byte) (extent, error) {
	hdr := header(key, int64(len(data)), crc32.Checksum(data, castagnoli))
	rec := make([]byte, 0, len(hdr)+len(data)+1)
	rec = append(append(append(rec, hdr...), data...), '\n')
	if _, err := s.pack.Write(rec); err != nil {
		_ = s.pack.Truncate(s.end) // best-effort clip of the partial record
		return extent{}, fmt.Errorf("store: appending %s: %w", key, err)
	}
	ext := extent{off: s.end + int64(len(hdr)), size: int64(len(data))}
	s.end += int64(len(rec))
	return ext, nil
}

// add indexes key at ext unless it is already indexed.
func (s *Store) add(key string, ext extent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.index[key]; dup {
		return
	}
	s.index[key] = ext
	s.bytes += ext.size
}

// lookup reads key's index entry and whether the store is closed.
func (s *Store) lookup(key string) (ext extent, present, closed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ext, present = s.index[key]
	return ext, present, s.closed
}

// Get returns the blob for key, read from the pack with no lock held. ok
// is false — a counted miss — when the store does not hold the key. The
// returned slice is the caller's to keep.
func (s *Store) Get(key string) (data []byte, ok bool, err error) {
	if s.observe != nil {
		t0 := time.Now()
		defer func() { s.observe("get", time.Since(t0)) }()
	}
	ext, present, closed := s.lookup(key)
	switch {
	case closed:
		return nil, false, fmt.Errorf("store: closed")
	case !present:
		s.misses.Add(1)
		return nil, false, nil
	}
	data = make([]byte, ext.size)
	if _, err := s.reader.ReadAt(data, ext.off); err != nil {
		return nil, false, fmt.Errorf("store: reading blob %s: %w", key, err)
	}
	s.hits.Add(1)
	return data, true, nil
}

// Has reports whether the store holds key, without reading the blob and
// without touching the hit/miss counters — the existence probe the job
// queue uses for submit-time dedup.
func (s *Store) Has(key string) bool {
	_, present, _ := s.lookup(key)
	return present
}

// importObjects moves a store written in the earlier layout — one
// objects/<aa>/<key> file per blob beside an index.log — into the pack.
// Every object file is complete, because it was renamed into place only
// after its fsync, so each is appended as it stands, and the index.log
// adds nothing the files do not show. Keys the pack already holds are
// skipped, so an import a crash interrupted is redone by the next Open.
// The pack and its directory entry are synced before the old files go.
// Called from Open only; a directory without objects/ costs one stat.
func (s *Store) importObjects() error {
	objects := filepath.Join(s.dir, "objects")
	if _, err := os.Stat(objects); os.IsNotExist(err) {
		return nil
	}
	err := filepath.WalkDir(objects, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !validKey(d.Name()) || s.Has(d.Name()) {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		ext, err := s.appendRecord(d.Name(), data)
		if err == nil {
			s.add(d.Name(), ext)
		}
		return err
	})
	if err == nil {
		err = s.pack.Sync()
	}
	if err == nil {
		err = syncDir(s.dir)
	}
	if err != nil {
		return fmt.Errorf("store: importing objects/: %w", err)
	}
	// index.log and stray temp files go first and objects/ last, so a
	// crash part-way leaves objects/ for the next Open to finish the job.
	old, _ := filepath.Glob(filepath.Join(s.dir, "tmp-*"))
	for _, p := range append(old, filepath.Join(s.dir, "index.log"), objects) {
		if err := os.RemoveAll(p); err != nil {
			return fmt.Errorf("store: removing imported %s: %w", p, err)
		}
	}
	return nil
}

// syncDir makes the entries of dir durable (a new file's name included).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Bytes:   s.bytes,
		Entries: int64(len(s.index)),
	}
}

// Close releases the pack. Further method calls error.
func (s *Store) Close() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if wasClosed {
		return nil
	}
	return errors.Join(s.pack.Close(), s.reader.Close())
}

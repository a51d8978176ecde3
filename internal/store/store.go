package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultCapBytes is the on-disk byte cap when the caller does not set
// one: the full Rodinia suite's traces run ~79 MB and Stats/profile
// blobs are tiny, so 4 GiB comfortably holds several size classes and
// program variants while bounding a long-lived service's disk use.
const DefaultCapBytes = 4 << 30

// Blob framing: magic, format version, payload checksum, payload length,
// payload. The checksum makes torn or bit-rotted files detectable on
// load; the atomic write-then-rename makes them unlikely in the first
// place.
const (
	blobMagic   = "RART"
	blobVersion = 1
	blobHdrLen  = 4 + 4 + sha256.Size + 8
)

// Counters is a point-in-time snapshot of the store's decision counters,
// mirroring the store.* instruments for callers without a registry.
type Counters struct {
	Hits        uint64
	Misses      uint64
	Puts        uint64
	Evictions   uint64
	Corrupt     uint64
	Uncacheable uint64
	Bytes       int64
}

// Store is a disk-backed, content-addressed blob store with a byte-capped
// LRU. It is safe for concurrent use within a process; across processes,
// atomic renames keep readers consistent (a concurrent writer can at
// worst waste a recompute, never serve a torn blob).
//
// The objects directory is the whole on-disk state: one file per blob,
// named by its key in hex, whose size is the entry's size and whose
// modification time is its recency. Put and Get stamp the blob's mtime
// explicitly, with a wall-clock time strictly later than every stamp the
// store has set or seen, and eviction removes the entry with the oldest
// stamp, the key's name breaking ties. So a reopened store evicts in the
// order the running one would have, to the file system's timestamp
// resolution.
type Store struct {
	dir      string
	capBytes int64

	mu      sync.Mutex
	entries map[Key]*entry
	bytes   int64
	stamp   int64 // the latest recency stamp set or seen, in Unix ns

	hit, miss, put, evict    *obs.Counter
	corrupt, uncacheable     *obs.Counter
	bytesGauge, entriesGauge *obs.Gauge
	counters                 Counters
}

type entry struct {
	bytes   int64
	lastUse int64 // the blob's mtime in Unix ns
}

// Open opens (creating if needed) the store rooted at dir. capBytes ≤ 0
// selects DefaultCapBytes. The registry receives the store.{hit, miss,
// put, evict, corrupt, uncacheable} counters and the store.{bytes,
// entries} gauges (nil is the free no-op). Open lists the objects
// directory, takes every hex-named file as a blob with its size and
// mtime, and enforces the cap immediately, evicting the oldest first.
// Anything else in dir, such as an index.json an older release wrote,
// is ignored.
func Open(dir string, capBytes int64, r *obs.Registry) (*Store, error) {
	if capBytes <= 0 {
		capBytes = DefaultCapBytes
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:          dir,
		capBytes:     capBytes,
		entries:      make(map[Key]*entry),
		hit:          r.Counter("store.hit"),
		miss:         r.Counter("store.miss"),
		put:          r.Counter("store.put"),
		evict:        r.Counter("store.evict"),
		corrupt:      r.Counter("store.corrupt"),
		uncacheable:  r.Counter("store.uncacheable"),
		bytesGauge:   r.Gauge("store.bytes"),
		entriesGauge: r.Gauge("store.entries"),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.evictOverLocked()
	s.publishLocked()
	s.mu.Unlock()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// load seeds the LRU from the objects directory.
func (s *Store) load() error {
	names, err := os.ReadDir(filepath.Join(s.dir, "objects"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		k, ok := decodeHexKey(de.Name())
		if !ok {
			continue // temp files and strangers are not ours to index
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		e := &entry{bytes: info.Size(), lastUse: info.ModTime().UnixNano()}
		s.stamp = max(s.stamp, e.lastUse)
		s.entries[k] = e
		s.bytes += e.bytes
	}
	return nil
}

func decodeHexKey(name string) (Key, bool) {
	var k Key
	raw, err := hex.DecodeString(name)
	if err != nil || len(raw) != len(k) {
		return k, false
	}
	copy(k[:], raw)
	return k, true
}

func (s *Store) objectPath(k Key) string {
	return filepath.Join(s.dir, "objects", k.String())
}

// Get returns the payload stored under key, or ok=false on a miss. A
// blob that fails framing or checksum validation is deleted and reported
// as a miss (and counted corrupt): the caller recomputes and the next
// Put heals the store.
func (s *Store) Get(k Key) ([]byte, bool) {
	s.mu.Lock()
	e, ok := s.entries[k]
	if ok {
		s.touchLocked(k, e)
	}
	s.mu.Unlock()
	if !ok {
		s.miss.Inc()
		s.count(func(c *Counters) { c.Misses++ })
		return nil, false
	}
	payload, err := readBlob(s.objectPath(k))
	if err != nil {
		s.Discard(k)
		s.corrupt.Inc()
		s.miss.Inc()
		s.count(func(c *Counters) { c.Corrupt++; c.Misses++ })
		return nil, false
	}
	s.hit.Inc()
	s.count(func(c *Counters) { c.Hits++ })
	return payload, true
}

// Put stores payload under key, atomically (write to a temp file in the
// same directory, fsync, rename), then evicts least-recently-used blobs
// until the byte cap holds. A payload larger than the whole cap is not
// stored. Put overwrites an existing blob under the same key.
func (s *Store) Put(k Key, payload []byte) error {
	blobLen := int64(blobHdrLen + len(payload))
	if blobLen > s.capBytes {
		s.uncacheable.Inc()
		s.count(func(c *Counters) { c.Uncacheable++ })
		return nil
	}
	if err := writeBlobAtomic(s.objectPath(k), payload); err != nil {
		return fmt.Errorf("store: put %s: %w", k, err)
	}
	s.mu.Lock()
	if old, ok := s.entries[k]; ok {
		s.bytes -= old.bytes
	}
	e := &entry{bytes: blobLen}
	s.touchLocked(k, e)
	s.entries[k] = e
	s.bytes += blobLen
	s.counters.Puts++
	s.evictOverLocked()
	s.publishLocked()
	s.mu.Unlock()
	s.put.Inc()
	return nil
}

// touchLocked makes e the most recently used entry, in memory and in its
// blob's mtime. The stamp is not fsynced: a crash can cost recency, never
// a blob. Caller holds s.mu, so stamps follow the order of use.
func (s *Store) touchLocked(k Key, e *entry) {
	s.stamp = max(s.stamp+1, time.Now().UnixNano())
	e.lastUse = s.stamp
	t := time.Unix(0, s.stamp)
	// A failed stamp (the blob vanished behind the store's back) leaves
	// only the reopened order stale; Get finds the loss itself.
	_ = os.Chtimes(s.objectPath(k), t, t)
}

// Discard removes the blob under key, if present. Used internally for
// corrupt blobs and by typed loaders whose payload fails to decode.
func (s *Store) Discard(k Key) {
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		s.bytes -= e.bytes
		delete(s.entries, k)
	}
	s.publishLocked()
	s.mu.Unlock()
	os.Remove(s.objectPath(k)) //nolint:errcheck // already forgotten
}

// evictOverLocked removes least-recently-used entries, the smaller key
// first among equal stamps, until the cap holds. Caller holds s.mu.
func (s *Store) evictOverLocked() {
	for s.bytes > s.capBytes && len(s.entries) > 0 {
		var victim Key
		var ve *entry
		for k, e := range s.entries {
			if ve == nil || e.lastUse < ve.lastUse ||
				e.lastUse == ve.lastUse && bytes.Compare(k[:], victim[:]) < 0 {
				victim, ve = k, e
			}
		}
		delete(s.entries, victim)
		s.bytes -= ve.bytes
		s.counters.Evictions++
		s.evict.Inc()
		os.Remove(s.objectPath(victim)) //nolint:errcheck // best effort
	}
}

func (s *Store) publishLocked() {
	s.counters.Bytes = s.bytes
	s.bytesGauge.Set(s.bytes)
	s.entriesGauge.Set(int64(len(s.entries)))
}

func (s *Store) count(f func(*Counters)) {
	s.mu.Lock()
	f(&s.counters)
	s.mu.Unlock()
}

// Counters snapshots the store's decision counters.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.counters
	c.Bytes = s.bytes
	return c
}

// Bytes reports current on-disk occupancy (framing included).
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Len reports the number of stored blobs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Close ends the caller's use of the store and always returns nil: every
// Put has published its blob, and its recency stamp, before returning, so
// there is nothing left to flush. The store must not be used afterwards.
func (s *Store) Close() error { return nil }

// readBlob reads and validates one framed blob.
func readBlob(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < blobHdrLen || string(data[:4]) != blobMagic {
		return nil, fmt.Errorf("store: bad blob framing")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != blobVersion {
		return nil, fmt.Errorf("store: blob version %d", v)
	}
	var sum [sha256.Size]byte
	copy(sum[:], data[8:8+sha256.Size])
	n := binary.LittleEndian.Uint64(data[8+sha256.Size:])
	payload := data[blobHdrLen:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("store: blob truncated: %d of %d payload bytes", len(payload), n)
	}
	if sha256.Sum256(payload) != sum {
		return nil, fmt.Errorf("store: blob checksum mismatch")
	}
	return payload, nil
}

// writeBlobAtomic frames a payload and publishes it at path: written to a
// unique temp file in path's directory, synced, then renamed over path.
func writeBlobAtomic(path string, payload []byte) error {
	buf := make([]byte, blobHdrLen, blobHdrLen+len(payload))
	copy(buf, blobMagic)
	binary.LittleEndian.PutUint32(buf[4:], blobVersion)
	sum := sha256.Sum256(payload)
	copy(buf[8:], sum[:])
	binary.LittleEndian.PutUint64(buf[8+sha256.Size:], uint64(len(payload)))
	buf = append(buf, payload...)
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err = f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name()) //nolint:errcheck // best effort
	}
	return err
}

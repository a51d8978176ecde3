package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// testKey derives a distinct key for one test blob.
func testKey(s string) Key { return Key(sha256.Sum256([]byte(s))) }

// payload builds a deterministic n-byte payload seeded by s.
func payload(s string, n int) []byte {
	out := make([]byte, n)
	seed := sha256.Sum256([]byte(s))
	for i := range out {
		out[i] = seed[i%len(seed)]
	}
	return out
}

func TestStorePutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	k := testKey("round-trip")
	want := payload("round-trip", 1000)
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on an empty store")
	}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get: ok=%v, %d bytes, want %d", ok, len(got), len(want))
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Puts != 1 {
		t.Fatalf("counters = %+v, want 1 hit, 1 miss, 1 put", c)
	}
	if s.Len() != 1 || s.Bytes() != int64(blobHdrLen+len(want)) {
		t.Fatalf("Len=%d Bytes=%d, want 1 blob of %d bytes", s.Len(), s.Bytes(), blobHdrLen+len(want))
	}
}

func TestStoreOverwriteAccountsOnce(t *testing.T) {
	s, err := Open(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	k := testKey("overwrite")
	if err := s.Put(k, payload("v1", 100)); err != nil {
		t.Fatal(err)
	}
	want := payload("v2", 300)
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Bytes() != int64(blobHdrLen+len(want)) {
		t.Fatalf("after overwrite: Len=%d Bytes=%d, want 1 blob of %d bytes", s.Len(), s.Bytes(), blobHdrLen+len(want))
	}
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, want) {
		t.Fatal("overwrite did not replace the payload")
	}
}

func TestStoreLRUEvictionByBytes(t *testing.T) {
	// Cap that holds exactly two 100-byte payloads (plus framing).
	blob := int64(blobHdrLen + 100)
	reg := obs.New()
	s, err := Open(t.TempDir(), 2*blob, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	a, b, c := testKey("a"), testKey("b"), testKey("c")
	for _, k := range []Key{a, b} {
		if err := s.Put(k, payload(k.String(), 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so b becomes the LRU victim.
	if _, ok := s.Get(a); !ok {
		t.Fatal("a missed before eviction")
	}
	if err := s.Put(c, payload("c", 100)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(b); ok {
		t.Fatal("b survived although least recently used")
	}
	if _, ok := s.Get(a); !ok {
		t.Fatal("a evicted although recently used")
	}
	if _, ok := s.Get(c); !ok {
		t.Fatal("c evicted although just written")
	}
	if got := s.Counters().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := reg.Counters()["store.evict"]; got != 1 {
		t.Fatalf("store.evict = %d, want 1", got)
	}
	if s.Bytes() > 2*blob {
		t.Fatalf("occupancy %d exceeds cap %d", s.Bytes(), 2*blob)
	}
	// The victim's file is gone from disk, not just from the index.
	if _, err := os.Stat(s.objectPath(b)); !os.IsNotExist(err) {
		t.Fatalf("victim blob still on disk: %v", err)
	}
}

func TestStoreUncacheableOversizedBlob(t *testing.T) {
	s, err := Open(t.TempDir(), 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	k := testKey("huge")
	if err := s.Put(k, payload("huge", 1000)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("oversized blob was stored")
	}
	c := s.Counters()
	if c.Uncacheable != 1 || c.Puts != 0 {
		t.Fatalf("counters = %+v, want 1 uncacheable, 0 puts", c)
	}
}

func TestStoreCorruptBlobIsMissThenHeals(t *testing.T) {
	reg := obs.New()
	s, err := Open(t.TempDir(), 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	k := testKey("corrupt")
	want := payload("corrupt", 500)
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte behind the store's back.
	path := s.objectPath(k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(k); ok {
		t.Fatal("corrupt blob served as a hit")
	}
	if got := s.Counters().Corrupt; got != 1 {
		t.Fatalf("corrupt = %d, want 1", got)
	}
	if got := reg.Counters()["store.corrupt"]; got != 1 {
		t.Fatalf("store.corrupt = %d, want 1", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt blob not deleted: %v", err)
	}
	// The next Put heals the store.
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, want) {
		t.Fatal("store did not heal after recompute")
	}
}

func TestStoreReopenServesAndKeepsRecency(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := testKey("a"), testKey("b")
	if err := s.Put(a, payload("a", 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b, payload("b", 100)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(a); !ok { // a is now the most recently used
		t.Fatal("a missed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a cap that forces one eviction at Open: the persisted
	// recency must make b (not a) the victim.
	blob := int64(blobHdrLen + 100)
	s2, err := Open(dir, blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get(b); ok {
		t.Fatal("b survived reopen eviction although least recently used")
	}
	got, ok := s2.Get(a)
	if !ok || !bytes.Equal(got, payload("a", 100)) {
		t.Fatal("a lost across reopen")
	}
}

// TestStoreOpenAdoptsUnindexedBlobs opens a store directory as an older
// release left it: an index.json beside objects/ that lists a blob that
// has since vanished and misses one that exists. The index is ignored:
// every blob on disk is adopted and served, and the file stays as it was.
func TestStoreOpenAdoptsUnindexedBlobs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	listed, unlisted, vanished := testKey("listed"), testKey("unlisted"), testKey("vanished")
	for _, k := range []Key{listed, unlisted} {
		if err := s.Put(k, payload(k.String(), 200)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	index := fmt.Sprintf(`{"version":1,"entries":[{"key":%q,"bytes":%d,"last_use":2},{"key":%q,"bytes":%d,"last_use":1}]}`,
		listed, blobHdrLen+200, vanished, blobHdrLen+200)
	indexPath := filepath.Join(dir, "index.json")
	if err := os.WriteFile(indexPath, []byte(index), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 || s2.Bytes() != 2*(blobHdrLen+200) {
		t.Fatalf("reopened store holds %d blobs / %d bytes, want the 2 on disk", s2.Len(), s2.Bytes())
	}
	for _, k := range []Key{listed, unlisted} {
		if got, ok := s2.Get(k); !ok || !bytes.Equal(got, payload(k.String(), 200)) {
			t.Fatalf("blob %s not served after reopen", k)
		}
	}
	if _, ok := s2.Get(vanished); ok {
		t.Fatal("a blob only the leftover index names was served")
	}
	if got, err := os.ReadFile(indexPath); err != nil || string(got) != index {
		t.Fatalf("leftover index.json changed: %q, %v", got, err)
	}
}

// TestStoreWritesOnlyObjects pins the store's on-disk state: a Put
// publishes exactly one file, its blob under objects/, and nothing else
// is written after Put, Get, Discard and Close.
func TestStoreWritesOnlyObjects(t *testing.T) {
	dir := t.TempDir()
	files := func() []string {
		var out []string
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				rel, _ := filepath.Rel(dir, path)
				out = append(out, rel)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	s, err := Open(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("only")
	if err := s.Put(k, payload("only", 100)); err != nil {
		t.Fatal(err)
	}
	if got, want := files(), []string{filepath.Join("objects", k.String())}; !slices.Equal(got, want) {
		t.Fatalf("after Put the store holds %q, want %q", got, want)
	}
	if _, ok := s.Get(k); !ok {
		t.Fatal("blob missed")
	}
	s.Discard(k)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := files(); len(got) != 0 {
		t.Fatalf("after Get, Discard and Close the store holds %q, want nothing", got)
	}
}

// TestStoreReopenEvictsInProcessOrder puts blobs back to back, closer
// together than the kernel's own write times tell apart, then gets every
// odd one, the last put first. A reopened store under a cap that keeps
// two thirds of them, so the cut falls among blobs only Put has stamped,
// must keep exactly the ones the running store would have.
func TestStoreReopenEvictsInProcessOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n, keep = 60, 40
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = testKey(fmt.Sprintf("blob-%d", i))
		if err := s.Put(keys[i], payload(keys[i].String(), 100)); err != nil {
			t.Fatal(err)
		}
	}
	var order []Key // least recently used first
	for i := 0; i < n; i += 2 {
		order = append(order, keys[i])
	}
	for i := n - 1; i > 0; i -= 2 {
		if _, ok := s.Get(keys[i]); !ok {
			t.Fatalf("blob %d missed", i)
		}
		order = append(order, keys[i])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, keep*int64(blobHdrLen+100), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != keep {
		t.Fatalf("reopened store kept %d blobs, want %d", s2.Len(), keep)
	}
	for i, k := range order[n-keep:] {
		if _, ok := s2.Get(k); !ok {
			t.Fatalf("blob %d of the %d most recently used was evicted", i, keep)
		}
	}
}

// TestStoreOpenBreaksMtimeTiesByName gives two blobs the same mtime: a
// reopened store that must evict one evicts the smaller name.
func TestStoreOpenBreaksMtimeTiesByName(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := testKey("a"), testKey("b")
	if a.String() > b.String() {
		a, b = b, a
	}
	same := time.Unix(1700000000, 0)
	for _, k := range []Key{b, a} {
		if err := s.Put(k, payload(k.String(), 100)); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(s.objectPath(k), same, same); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir, int64(blobHdrLen+100), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get(a); ok {
		t.Fatal("the smaller name survived a tie")
	}
	if _, ok := s2.Get(b); !ok {
		t.Fatal("the larger name was evicted on a tie")
	}
}

func TestStoreOpenDropsVanishedEntriesAndStrangers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("vanish")
	if err := s.Put(k, payload("vanish", 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The blob vanishes behind the index's back; a stranger file appears.
	if err := os.Remove(s.objectPath(k)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "objects", "README"), []byte("not a blob"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 0 || s2.Bytes() != 0 {
		t.Fatalf("reopened store indexed %d blobs / %d bytes, want empty", s2.Len(), s2.Bytes())
	}
	if _, ok := s2.Get(k); ok {
		t.Fatal("vanished blob served as a hit")
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir(), 0, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := testKey(fmt.Sprintf("blob-%d", i))
				want := payload(k.String(), 64+i)
				if err := s.Put(k, want); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(k); !ok || !bytes.Equal(got, want) {
					t.Errorf("worker %d: blob %d corrupted under concurrency", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 20 {
		t.Fatalf("Len = %d, want 20", s.Len())
	}
}

func TestReadBlobRejectsBadFraming(t *testing.T) {
	dir := t.TempDir()
	want := payload("frame", 100)
	path := filepath.Join(dir, "blob")
	if err := writeBlobAtomic(path, want); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"short header": good[:blobHdrLen-1],
		"bad magic":    append([]byte("XXXX"), good[4:]...),
		"bad version":  append(append([]byte{}, good[:4]...), append([]byte{0xff, 0xff, 0xff, 0xff}, good[8:]...)...),
		"truncated":    good[:len(good)-1],
	}
	for name, data := range cases {
		p := filepath.Join(dir, "case")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readBlob(p); err == nil {
			t.Errorf("%s: readBlob accepted a malformed blob", name)
		}
	}
	// The untouched original still reads back.
	got, err := readBlob(path)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("valid blob failed to read: %v", err)
	}
}

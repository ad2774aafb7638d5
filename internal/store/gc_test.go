package store

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// Kernel file timestamps are coarse, so two writes a few ms apart can
// share an mtime: every test that depends on eviction order sets mtimes
// explicitly rather than relying on write order.

// entrySize is the framed on-disk size of a payload of n bytes.
func entrySize(n int) int64 { return int64(12 + n) }

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func enableGC(t *testing.T, s *Store, maxBytes int64) {
	t.Helper()
	if err := s.EnableGC(maxBytes); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.CloseGC)
}

func mustPut(t *testing.T, s *Store, hash string, n int) {
	t.Helper()
	if err := s.Put("stable", hash, make([]byte, n)); err != nil {
		t.Fatal(err)
	}
}

// backdate sets an entry's mtime age before now.
func backdate(t *testing.T, s *Store, hash string, age time.Duration) {
	t.Helper()
	mt := time.Now().Add(-age)
	if err := os.Chtimes(filepath.Join(s.Dir(), "stable", hash), mt, mt); err != nil {
		t.Fatal(err)
	}
}

// putAged writes one n-byte entry per hash, the first oldest: hashes[i]
// is (len(hashes)-i) hours old.
func putAged(t *testing.T, s *Store, n int, hashes ...string) {
	t.Helper()
	for i, h := range hashes {
		mustPut(t, s, h, n)
		backdate(t, s, h, time.Duration(len(hashes)-i)*time.Hour)
	}
}

func mtime(t *testing.T, s *Store, hash string) time.Time {
	t.Helper()
	st, err := os.Stat(filepath.Join(s.Dir(), "stable", hash))
	if err != nil {
		t.Fatal(err)
	}
	return st.ModTime()
}

func present(t *testing.T, s *Store, hash string) bool {
	t.Helper()
	_, err := os.Stat(filepath.Join(s.Dir(), "stable", hash))
	if err == nil {
		return true
	}
	if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return false
}

func TestGCEvictsColdEntriesFirst(t *testing.T) {
	s := openStore(t, t.TempDir())
	putAged(t, s, 1000, "aa", "bb", "cc", "dd")
	enableGC(t, s, 4400)
	// A hit makes aa the most recently used entry despite its age.
	if p, err := s.Get("stable", "aa"); err != nil || p == nil {
		t.Fatalf("warm read: %v", err)
	}
	mustPut(t, s, "ee", 1000) // 5060 bytes: over budget
	s.RunGC()

	// Oldest mtime first was bb, cc, dd, then aa and ee; draining to the
	// 3960-byte low-water mark evicts bb and cc.
	for _, h := range []string{"bb", "cc"} {
		if present(t, s, h) {
			t.Fatalf("cold entry %s survived", h)
		}
	}
	for _, h := range []string{"dd", "aa", "ee"} {
		if !present(t, s, h) {
			t.Fatalf("hot entry %s evicted", h)
		}
	}
	if got := s.GCBytes(); got != 3*entrySize(1000) {
		t.Fatalf("GCBytes = %d, want %d", got, 3*entrySize(1000))
	}
	if got := s.Metrics().GCEvictions.Value(); got != 2 {
		t.Fatalf("evictions = %v, want 2", got)
	}
	// Evicted entries read as clean misses, not errors.
	if p, err := s.Get("stable", "bb"); err != nil || p != nil {
		t.Fatalf("evicted entry read = (%v, %v), want clean miss", p, err)
	}
}

// TestGCReadRecencySurvivesRestart: a hit bumps the entry's mtime, so a
// restarted server still knows which entries were read recently.
func TestGCReadRecencySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	putAged(t, s, 1000, "aa", "bb") // aa is the older entry
	enableGC(t, s, 1<<20)
	if p, err := s.Get("stable", "aa"); err != nil || p == nil {
		t.Fatalf("warm read: %v", err)
	}
	s.CloseGC()

	// Restart with a budget that needs one eviction: 2024 > 2000, and one
	// entry is under the 1800-byte low-water mark.
	s2 := openStore(t, dir)
	enableGC(t, s2, 2000)
	s2.RunGC()
	if present(t, s2, "bb") {
		t.Fatal("entry unread before the restart survived")
	}
	if !present(t, s2, "aa") {
		t.Fatal("entry read before the restart was evicted first")
	}
}

func TestGCScanOnStartOrdersByMtime(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	putAged(t, s, 1000, "oldest", "middle", "newest")
	// A stray temp file must be ignored by the scan.
	if err := os.WriteFile(filepath.Join(dir, "stable", ".junk.tmp1"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	enableGC(t, s, 3000)
	s.RunGC()
	// 3036 > 3000; draining to 2700 evicts exactly the oldest mtime.
	if present(t, s, "oldest") {
		t.Fatal("oldest entry survived")
	}
	if !present(t, s, "middle") || !present(t, s, "newest") {
		t.Fatal("younger entry evicted before the oldest")
	}
	if got := s.GCBytes(); got != 2*entrySize(1000) {
		t.Fatalf("scan counted %d bytes, want %d (temp file leaked in?)", got, 2*entrySize(1000))
	}
}

func TestGCDeleteFailpointSkipsAndRetries(t *testing.T) {
	if err := faultinject.Configure(faultinject.PointStoreDelete + "=at:1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()

	s := openStore(t, t.TempDir())
	putAged(t, s, 1000, "aa", "bb", "cc")
	enableGC(t, s, 2500) // 3036 bytes: over budget
	s.RunGC()

	// The first delete attempt (oldest entry, aa) failed; the pass skipped
	// it and evicted bb instead, reaching the 2250-byte low-water mark.
	if !present(t, s, "aa") {
		t.Fatal("entry whose delete failed was dropped")
	}
	if present(t, s, "bb") {
		t.Fatal("next victim not evicted after the failed delete")
	}
	if got := s.Metrics().GCErrors.Value(); got != 1 {
		t.Fatalf("gc errors = %v, want 1", got)
	}
	// aa is still on disk: new pressure retries it first now that the
	// failpoint is exhausted.
	mustPut(t, s, "dd", 1000)
	s.RunGC()
	if present(t, s, "aa") {
		t.Fatal("failed delete not retried on the next pass")
	}
	if !present(t, s, "cc") || !present(t, s, "dd") {
		t.Fatal("retry pass evicted a younger entry")
	}
	if got := s.Metrics().GCEvictions.Value(); got != 2 {
		t.Fatalf("evictions = %v, want 2", got)
	}
}

func TestGCDisabledIsInert(t *testing.T) {
	s := openStore(t, t.TempDir())
	mustPut(t, s, "aa", 1000)
	backdate(t, s, "aa", time.Hour)
	before := mtime(t, s, "aa")
	if p, err := s.Get("stable", "aa"); err != nil || p == nil {
		t.Fatalf("read: %v", err)
	}
	if got := mtime(t, s, "aa"); !got.Equal(before) {
		t.Fatalf("ungoverned Get moved the mtime %v → %v", before, got)
	}
	s.RunGC()
	s.CloseGC()
	if got := s.GCBytes(); got != 0 {
		t.Fatalf("GCBytes without GC = %d, want 0", got)
	}
	if !present(t, s, "aa") {
		t.Fatal("ungoverned store evicted an entry")
	}
}

func TestGCBackgroundEviction(t *testing.T) {
	s := openStore(t, t.TempDir())
	putAged(t, s, 1000, "aa")
	enableGC(t, s, 2000)
	mustPut(t, s, "bb", 1000) // over budget: the Put kicks the background pass
	deadline := time.Now().Add(5 * time.Second)
	for s.GCBytes() > 1800 {
		if time.Now().After(deadline) {
			t.Fatalf("background GC never drained the store (at %d bytes)", s.GCBytes())
		}
		time.Sleep(time.Millisecond)
	}
	if present(t, s, "aa") {
		t.Fatal("background pass spared the oldest entry")
	}
	if !present(t, s, "bb") {
		t.Fatal("background pass evicted the newest entry")
	}
}

func TestGCForgetsDeletedAndCorruptEntries(t *testing.T) {
	s := openStore(t, t.TempDir())
	enableGC(t, s, 1<<20)
	mustPut(t, s, "aa", 1000)
	mustPut(t, s, "bb", 1000)
	if got := s.GCBytes(); got != 2*entrySize(1000) {
		t.Fatalf("GCBytes after puts = %d, want %d", got, 2*entrySize(1000))
	}
	if err := s.Delete("stable", "aa"); err != nil {
		t.Fatal(err)
	}
	if got := s.GCBytes(); got != entrySize(1000) {
		t.Fatalf("GCBytes after delete = %d, want %d", got, entrySize(1000))
	}
	// Corrupt bb on disk; the corrupt-read delete must take the garbage
	// file's size off the count.
	p := filepath.Join(s.Dir(), "stable", "bb")
	if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.RunGC() // re-measures the overwritten file
	if _, err := s.Get("stable", "bb"); err == nil {
		t.Fatal("corrupt read did not error")
	}
	if got := s.GCBytes(); got != 0 {
		t.Fatalf("GCBytes after corrupt delete = %d, want 0", got)
	}
}

// TestGCConcurrentTraffic races Puts, Gets and Deletes against passes: a
// read returns the full payload or a clean miss, and once traffic stops a
// pass brings the store within budget with the count matching the disk.
func TestGCConcurrentTraffic(t *testing.T) {
	s := openStore(t, t.TempDir())
	enableGC(t, s, 8*entrySize(1000))
	hashes := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh", "ii", "jj", "kk", "ll"}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := hashes[(w*7+i)%len(hashes)]
				switch i % 5 {
				case 0, 1:
					if err := s.Put("stable", h, make([]byte, 1000)); err != nil {
						t.Error(err)
						return
					}
				case 2:
					_ = s.Delete("stable", h)
				case 3:
					s.RunGC()
				default:
					p, err := s.Get("stable", h)
					if err != nil || (p != nil && len(p) != 1000) {
						t.Errorf("read %s = %d bytes, %v; want 1000 bytes or a clean miss", h, len(p), err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	s.RunGC()
	var onDisk int64
	for _, h := range hashes {
		if st, err := os.Stat(filepath.Join(s.Dir(), "stable", h)); err == nil {
			onDisk += st.Size()
		}
	}
	if got := s.GCBytes(); got != onDisk || got > 8*entrySize(1000) {
		t.Fatalf("after traffic: GCBytes = %d, %d on disk, budget %d", got, onDisk, 8*entrySize(1000))
	}
}

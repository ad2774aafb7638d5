package journal

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sweep"
)

// writeSweep journals a start, n cells and (optionally) a done record
// under hash, then closes it.
func writeSweep(t *testing.T, s *Store, hash string, n int, done bool) {
	t.Helper()
	j, err := s.Sweep(hash)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Start(n); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendRange("w1", []sweep.IndexRange{{From: 0, To: n - 1}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := j.AppendCell(cell(i)); err != nil {
			t.Fatal(err)
		}
	}
	if done {
		if err := j.AppendDone(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func walSize(t *testing.T, s *Store, hash string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(s.Dir(), hash+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// backdateWAL sets a WAL's mtime age before now.
func backdateWAL(t *testing.T, s *Store, hash string, age time.Duration) {
	t.Helper()
	mt := time.Now().Add(-age)
	if err := os.Chtimes(filepath.Join(s.Dir(), hash+".wal"), mt, mt); err != nil {
		t.Fatal(err)
	}
}

func walPresent(t *testing.T, s *Store, hash string) bool {
	t.Helper()
	_, err := os.Stat(filepath.Join(s.Dir(), hash+".wal"))
	if err == nil {
		return true
	}
	if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return false
}

// TestRetireKeepsFinishedWALsWhole: a done WAL that no policy selects is
// left byte for byte, and replays every archived cell.
func TestRetireKeepsFinishedWALsWhole(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeSweep(t, s, "donesweep", 8, true)
	writeSweep(t, s, "livesweep", 8, false)
	path := filepath.Join(s.Dir(), "donesweep.wal")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	liveBefore := walSize(t, s, "livesweep")

	for _, r := range []Retention{{}, {Retain: 24 * time.Hour}, {MaxBytes: 1 << 20}} {
		stats, err := s.Retire(r)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Removed != 0 {
			t.Fatalf("%+v: stats = %+v, want nothing removed", r, stats)
		}
		if want := int64(len(before)) + liveBefore; stats.Bytes != want {
			t.Fatalf("%+v: stats.Bytes = %d, want %d", r, stats.Bytes, want)
		}
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
		t.Fatalf("done WAL changed (%d bytes, was %d): %v", len(after), len(before), err)
	}

	j, err := s.Sweep("donesweep")
	if err != nil {
		t.Fatal(err)
	}
	if !j.Done() || len(j.Completed()) != 8 {
		t.Fatalf("done replay: done=%v cells=%d, want done with 8 cells", j.Done(), len(j.Completed()))
	}
	// Re-sealing a replayed-done journal is a no-op, not a duplicate record.
	if err := j.AppendDone(); err != nil {
		t.Fatal(err)
	}
	if got := walSize(t, s, "donesweep"); got != int64(len(before)) {
		t.Fatalf("AppendDone on a sealed journal grew the WAL %d → %d", len(before), got)
	}
	j.Close()

	if got := walSize(t, s, "livesweep"); got != liveBefore {
		t.Fatalf("in-progress WAL size changed %d → %d", liveBefore, got)
	}
}

func TestCompactSkipsBusySweeps(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeSweep(t, s, "donesweep", 4, true)
	before := walSize(t, s, "donesweep")
	j, err := s.Sweep("donesweep")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	stats, err := s.Retire(Retention{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedBusy != 1 || stats.Removed != 0 {
		t.Fatalf("stats = %+v, want the open sweep skipped", stats)
	}
	if got := walSize(t, s, "donesweep"); got != before {
		t.Fatalf("open sweep's WAL changed %d → %d", before, got)
	}
}

func TestCompactAgesOutOldDoneWALs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeSweep(t, s, "oldsweep", 4, true)
	writeSweep(t, s, "newsweep", 4, true)
	writeSweep(t, s, "oldlive", 4, false)
	backdateWAL(t, s, "oldsweep", 48*time.Hour)
	backdateWAL(t, s, "oldlive", 72*time.Hour)

	stats, err := s.Retire(Retention{Retain: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 1 {
		t.Fatalf("stats = %+v, want oldsweep removed", stats)
	}
	if walPresent(t, s, "oldsweep") {
		t.Fatal("aged-out done WAL still on disk")
	}
	if !walPresent(t, s, "newsweep") {
		t.Fatal("done WAL inside the retention window was deleted")
	}
	// Age never applies to in-progress sweeps, however old.
	if !walPresent(t, s, "oldlive") {
		t.Fatal("aged in-progress WAL was deleted")
	}
	if got := s.Metrics().Retired.Value(); got != 1 {
		t.Fatalf("retired metric = %v, want 1", got)
	}
}

func TestCompactSizeBudgetRemovesOldestDoneFirst(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Three done sweeps plus one in-progress WAL, the oldest of all: the
	// budget walk must step past it and keep deleting done WALs.
	for i, h := range []string{"aa", "bb", "cc"} {
		writeSweep(t, s, h, 4, true)
		backdateWAL(t, s, h, time.Duration(3-i)*time.Hour)
	}
	writeSweep(t, s, "live", 64, false)
	backdateWAL(t, s, "live", 4*time.Hour)
	liveSize := walSize(t, s, "live")

	// Budget below the live WAL alone: every done WAL must go, the live
	// WAL must survive.
	stats, err := s.Retire(Retention{MaxBytes: liveSize - 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 3 || stats.Bytes != liveSize {
		t.Fatalf("stats = %+v, want all 3 done WALs removed, %d bytes left", stats, liveSize)
	}
	if !walPresent(t, s, "live") {
		t.Fatal("in-progress WAL sacrificed to the size budget")
	}

	// A budget one byte under the total removes only the oldest done WAL.
	s2, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i, h := range []string{"aa", "bb", "cc"} {
		writeSweep(t, s2, h, 4, true)
		backdateWAL(t, s2, h, time.Duration(3-i)*time.Hour)
		total += walSize(t, s2, h)
	}
	stats, err = s2.Retire(Retention{MaxBytes: total - 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 1 {
		t.Fatalf("stats = %+v, want exactly one removal", stats)
	}
	if walPresent(t, s2, "aa") {
		t.Fatal("size budget did not remove the oldest done WAL")
	}
	for _, h := range []string{"bb", "cc"} {
		if !walPresent(t, s2, h) {
			t.Fatalf("size budget removed younger WAL %s", h)
		}
	}
}

// TestCompactLeavesCorruptTailDoneWAL: a done WAL whose tail is torn
// awaits replay repair, so no retention policy may touch it — not
// age-based retention, not the size budget.
func TestCompactLeavesCorruptTailDoneWAL(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeSweep(t, s, "tornsweep", 8, true)
	path := filepath.Join(s.Dir(), "tornsweep.wal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0, 0}); err != nil { // torn frame header
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	backdateWAL(t, s, "tornsweep", 48*time.Hour)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, r := range []Retention{{}, {Retain: time.Hour}, {MaxBytes: 1}} {
		stats, err := s.Retire(r)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Removed != 0 {
			t.Fatalf("%+v: stats = %+v, want the torn WAL untouched", r, stats)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%+v: torn WAL gone: %v", r, err)
		}
		if string(after) != string(before) {
			t.Fatalf("%+v: torn WAL rewritten (%d bytes, was %d)", r, len(after), len(before))
		}
	}
}

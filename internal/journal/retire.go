package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// Retention is the journal store's retention policy.
type Retention struct {
	// Retain ages out completed sweeps: a done WAL whose mtime is older
	// than Retain is deleted (0 = keep forever).
	Retain time.Duration
	// MaxBytes bounds the journal directory: past it, the oldest done WALs
	// are deleted until the directory fits (0 = unbounded). In-progress
	// WALs count toward the total but are never deleted.
	MaxBytes int64
}

// RetireStats reports what one Retire pass did.
type RetireStats struct {
	// Removed counts done WALs deleted (aged out or over budget).
	Removed int
	// SkippedBusy counts WALs left alone because their sweep was open.
	SkippedBusy int
	// Bytes is the directory's WAL footprint after the pass.
	Bytes int64
}

// walFile is one WAL seen by a directory listing.
type walFile struct {
	hash  string
	size  int64
	mtime time.Time
}

// Retire deletes completed sweeps' WALs under the given policy. It walks
// the WALs oldest mtime first and, while a WAL is older than Retain or the
// directory is over MaxBytes, deletes it if it is done and has a clean
// tail; it stops at the first WAL that is neither aged nor needed for the
// budget, so only deletion candidates are read. A finished WAL that stays
// replays in full: resubmitting its spec re-emits the archived cells
// without computing anything. In-progress WALs — no done record, or a
// corrupt tail awaiting replay repair — are never touched, and a sweep
// that is open right now is skipped, so Retire can run on any schedule
// next to live traffic.
func (s *Store) Retire(r Retention) (RetireStats, error) {
	var stats RetireStats
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return stats, fmt.Errorf("journal: retire: %w", err)
	}
	var wals []walFile
	for _, e := range entries {
		hash, ok := strings.CutSuffix(e.Name(), ".wal")
		if e.IsDir() || !ok || !validHash(hash) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // deleted mid-listing
		}
		wals = append(wals, walFile{hash, info.Size(), info.ModTime()})
		stats.Bytes += info.Size()
	}
	sort.Slice(wals, func(i, j int) bool { return wals[i].mtime.Before(wals[j].mtime) })
	now := time.Now()
	for _, w := range wals {
		aged := r.Retain > 0 && now.Sub(w.mtime) > r.Retain
		over := r.MaxBytes > 0 && stats.Bytes > r.MaxBytes
		if !aged && !over {
			break
		}
		if !s.claim(w.hash) {
			stats.SkippedBusy++
			continue
		}
		removed, err := s.retireOne(w.hash)
		s.release(w.hash)
		if err != nil {
			return stats, fmt.Errorf("journal: retire: %w", err)
		}
		if removed {
			stats.Bytes -= w.size
			stats.Removed++
			s.metrics.Retired.Inc()
		}
	}
	return stats, nil
}

// retireOne deletes a claimed WAL if it is done with a clean tail. A WAL
// that vanished or cannot be read is not ours to manage.
func (s *Store) retireOne(hash string) (bool, error) {
	path := filepath.Join(s.dir, hash+".wal")
	f, err := os.Open(path)
	if err != nil {
		return false, nil
	}
	recs, _, clean := readFrames(f)
	f.Close()
	if !clean || !slices.ContainsFunc(recs, func(rec record) bool { return rec.Type == "done" }) {
		return false, nil
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return false, err
	}
	return true, nil
}

package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

const (
	// gcLowWater is the fraction of the budget a pass drains down to, so
	// the GC does hysteresis instead of evicting one entry per Put at the
	// boundary.
	gcLowWater = 0.9
	// gcInterval is the background pass period. Puts additionally kick a
	// pass as soon as the budget is exceeded.
	gcInterval = 5 * time.Second
)

// gcState is the store's size budget, its running byte count and the
// background eviction loop. The directory itself is the index: recency is
// each entry's file mtime (Put's rename sets it, a governed Get hit bumps
// it), and every pass lists the directory afresh.
type gcState struct {
	store    *Store
	maxBytes int64
	// bytes is the store's on-disk size: reset to the measured total by
	// every listing, raised by Puts, lowered by deletes. Drift between
	// passes (a concurrent overwrite, a racing delete) is corrected by the
	// next listing.
	bytes atomic.Int64
	// passMu serializes passes (the background loop and RunGC), so two
	// passes never delete on behalf of one overrun.
	passMu sync.Mutex

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// EnableGC turns on size governance: a background goroutine evicts the
// least recently used entries (oldest file mtime first) whenever the store
// exceeds maxBytes, draining to 0.9×maxBytes. Get hits bump the entry's
// mtime while governance is on, so read recency survives restarts.
// Eviction is safe against concurrent readers: entries are whole-file
// reads, so a Get racing an unlink either sees the complete old bytes or a
// clean miss — never a torn artifact.
//
// EnableGC must be called once, before the store is shared across
// goroutines, and pairs with CloseGC.
func (s *Store) EnableGC(maxBytes int64) error {
	if maxBytes <= 0 {
		return errors.New("store: gc budget must be positive")
	}
	if s.gc.Load() != nil {
		return errors.New("store: gc already enabled")
	}
	g := &gcState{
		store:    s,
		maxBytes: maxBytes,
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if _, _, err := g.list(); err != nil {
		return err
	}
	s.gc.Store(g)
	go g.loop()
	g.kickAsync()
	return nil
}

// CloseGC stops the background eviction goroutine. The store keeps
// working, just ungoverned.
func (s *Store) CloseGC() {
	g := s.gc.Load()
	if g == nil {
		return
	}
	s.gc.Store(nil)
	close(g.stop)
	<-g.done
}

// RunGC executes one synchronous eviction pass (tests and shutdown paths;
// the background goroutine runs the same pass on its own schedule).
func (s *Store) RunGC() {
	if g := s.gc.Load(); g != nil {
		g.pass()
	}
}

// GCBytes reports the governed store's on-disk size, 0 when governance is
// disabled.
func (s *Store) GCBytes() int64 {
	if g := s.gc.Load(); g != nil {
		return g.bytes.Load()
	}
	return 0
}

// gcAdd adjusts the byte count by delta and kicks a pass when the store
// goes over budget. No-op when GC is disabled.
func (s *Store) gcAdd(delta int64) {
	g := s.gc.Load()
	if g == nil {
		return
	}
	if g.bytes.Add(delta) > g.maxBytes {
		g.kickAsync()
	}
}

// entryFile is one store entry seen by a directory listing.
type entryFile struct {
	path  string
	size  int64
	mtime time.Time
}

// list walks <dir>/<kind>/<hash>, skipping temp files and anything else
// that is not a store entry, returns the entries oldest mtime first with
// their total size, and resets the byte count to that total.
func (g *gcState) list() ([]entryFile, int64, error) {
	kinds, err := os.ReadDir(g.store.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("store: gc scan: %w", err)
	}
	var found []entryFile
	var total int64
	for _, kd := range kinds {
		if !kd.IsDir() || !validKey(kd.Name()) {
			continue
		}
		files, err := os.ReadDir(filepath.Join(g.store.dir, kd.Name()))
		if err != nil {
			return nil, 0, fmt.Errorf("store: gc scan: %w", err)
		}
		for _, f := range files {
			// Temp files carry a "." prefix and fail validKey.
			if f.IsDir() || !validKey(f.Name()) {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue // deleted mid-scan
			}
			found = append(found, entryFile{filepath.Join(g.store.dir, kd.Name(), f.Name()), info.Size(), info.ModTime()})
			total += info.Size()
		}
	}
	g.bytes.Store(total)
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	return found, total, nil
}

// kickAsync requests a pass without blocking (coalesces with any pending
// request).
func (g *gcState) kickAsync() {
	select {
	case g.kick <- struct{}{}:
	default:
	}
}

// loop is the background eviction goroutine.
func (g *gcState) loop() {
	defer close(g.done)
	t := time.NewTicker(gcInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-g.kick:
		case <-t.C:
		}
		g.pass()
	}
}

// pass lists the directory and, when it is over budget, deletes entries
// oldest mtime first until the listed total is at or below the low-water
// mark (entries Put during the pass wait for the next one). A failed
// delete (including the store.delete failpoint) is counted and skipped;
// the next pass retries it.
func (g *gcState) pass() {
	g.passMu.Lock()
	defer g.passMu.Unlock()
	m := g.store.metrics
	m.GCRuns.Inc()
	entries, total, err := g.list()
	if err != nil || total <= g.maxBytes {
		return
	}
	low := int64(gcLowWater * float64(g.maxBytes))
	for _, e := range entries {
		if total <= low {
			return
		}
		err := faultinject.Hit(faultinject.PointStoreDelete)
		if err == nil {
			err = os.Remove(e.path)
		}
		switch {
		case errors.Is(err, os.ErrNotExist):
			// Deleted concurrently; that remover took it off the count.
			total -= e.size
		case err != nil:
			m.GCErrors.Inc()
		default:
			total -= e.size
			g.bytes.Add(-e.size)
			m.GCEvictions.Inc()
		}
	}
}

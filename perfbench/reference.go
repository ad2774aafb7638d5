package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/sweep"
)

// referenceMix answers every distinct request of the mix in-process with
// Engine.Do and returns the canonical results keyed by request body. Any
// failing request is an error: the workload is built so none fails.
func referenceMix(bodies [][]byte) (map[string][]byte, error) {
	var distinct []string
	ref := make(map[string][]byte)
	for _, b := range bodies {
		if _, ok := ref[string(b)]; !ok {
			ref[string(b)] = nil
			distinct = append(distinct, string(b))
		}
	}
	eng := engine.New()
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		next     = make(chan string)
	)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body := range next {
				out, err := referenceOne(eng, []byte(body))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				ref[body] = out
				mu.Unlock()
			}
		}()
	}
	for _, b := range distinct {
		next <- b
	}
	close(next)
	wg.Wait()
	return ref, firstErr
}

func referenceOne(eng *engine.Engine, body []byte) ([]byte, error) {
	var req engine.Request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	res, err := eng.Do(context.Background(), req)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", body, err)
	}
	return canonicalResult(res)
}

// referenceSweep runs a sweep grid in-process with sweep.Run, in two
// parts: first the cells whose artifacts persist (durableKinds), written
// through to an artifact store at storeDir when it is set, then the rest.
// It returns the canonical answers of the whole grid and of the durable
// part, and the durable part's wall time — the cost of filling a warm
// store.
func referenceSweep(spec sweep.Spec, storeDir string) (full, durable sweepRef, fill time.Duration, err error) {
	eng := engine.New()
	if storeDir != "" {
		st, err := store.Open(storeDir)
		if err != nil {
			return full, durable, 0, err
		}
		eng.SetArtifactStore(st)
	}
	durSpec, err := selectKinds(spec, durableKinds, false)
	if err != nil {
		return full, durable, 0, err
	}
	restSpec, err := selectKinds(spec, durableKinds, true)
	if err != nil {
		return full, durable, 0, err
	}
	t := time.Now()
	durRes, err := sweep.Run(context.Background(), eng, durSpec, sweep.RunOptions{})
	fill = time.Since(t)
	if err != nil {
		return full, durable, 0, err
	}
	restRes, err := sweep.Run(context.Background(), eng, restSpec, sweep.RunOptions{})
	if err != nil {
		return full, durable, 0, err
	}
	if durable, err = refOf(durSpec.Name, durRes.Cells, durRes.TotalCells); err != nil {
		return full, durable, 0, err
	}
	all := append(append([]sweep.CellResult(nil), durRes.Cells...), restRes.Cells...)
	full, err = refOf(spec.Name, all, len(all))
	return full, durable, fill, err
}

// fillStore fills a fresh artifact store at dir from the grid's persisting
// cells, as referenceSweep's first part does, and returns the time it took.
func fillStore(spec sweep.Spec, dir string) (time.Duration, error) {
	durSpec, err := selectKinds(spec, durableKinds, false)
	if err != nil {
		return 0, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	eng := engine.New()
	eng.SetArtifactStore(st)
	t := time.Now()
	res, err := sweep.Run(context.Background(), eng, durSpec, sweep.RunOptions{DiscardCells: true})
	d := time.Since(t)
	if err == nil && res.Failed > 0 {
		err = fmt.Errorf("store fill: %d cells failed", res.Failed)
	}
	return d, err
}

// refOf folds cells into canonical rows and the canonical summary a server
// streaming the same grid must produce.
func refOf(name string, cells []sweep.CellResult, total int) (sweepRef, error) {
	ref := sweepRef{rows: make(map[int][]byte, len(cells))}
	col := sweep.NewCollector(name, total, 0, false)
	for _, cr := range cells {
		if !cr.OK {
			return ref, fmt.Errorf("reference cell %d (%s %s) failed: %s", cr.Index, cr.Kind, cr.Protocol, cr.Error)
		}
		row, err := canonicalCell(cr)
		if err != nil {
			return ref, err
		}
		ref.rows[cr.Index] = row
		col.Add(cr)
	}
	summary, err := json.Marshal(sweep.CanonicalResult(col.Finish(0)))
	ref.summary = summary
	return ref, err
}

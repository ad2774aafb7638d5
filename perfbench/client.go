package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/sweep"
)

// clients is the closed loop's connection count: each client sends its
// next request only after the previous reply, as CLIs, ppsweep and
// notebooks do. Two matches the two cores of the reference host.
const clients = 2

// reply is one /v1/analyze exchange of a closed-loop pass.
type reply struct {
	Latency time.Duration
	Status  int
	Body    []byte
}

// mixPass sends every body once over `clients` closed-loop connections —
// client c sends requests c, c+clients, c+2·clients, … in order — and
// returns the replies in sequence order plus the loop's wall time. Replies
// are checked after the pass, so the client spends no CPU on decoding
// while the server is measured.
func mixPass(url string, bodies [][]byte) ([]reply, time.Duration) {
	replies := make([]reply, len(bodies))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(bodies); i += clients {
				replies[i] = postAnalyze(url, bodies[i])
			}
		}()
	}
	wg.Wait()
	return replies, time.Since(start)
}

func postAnalyze(url string, body []byte) reply {
	t := time.Now()
	resp, err := httpClient.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{Latency: time.Since(t), Body: []byte(err.Error())}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t)
	if err != nil {
		return reply{Latency: lat, Body: []byte(err.Error())}
	}
	return reply{Latency: lat, Status: resp.StatusCode, Body: data}
}

// canonicalResult renders an engine result without the fields that differ
// legitimately between equal analyses: timing and cache/incremental
// provenance.
func canonicalResult(res *engine.Result) ([]byte, error) {
	r := *res
	r.ElapsedMillis = 0
	r.CacheHit = false
	r.Incremental = nil
	return json.Marshal(&r)
}

// decodeReply returns the result of a 2xx analyze reply, or nil.
func decodeReply(rp reply) *engine.Result {
	if rp.Status/100 != 2 {
		return nil
	}
	var res engine.Result
	if err := json.Unmarshal(rp.Body, &res); err != nil {
		return nil
	}
	return &res
}

// checkReply reports whether an analyze reply is a 2xx whose result equals
// the reference once canonicalised.
func checkReply(rp reply, want []byte) bool {
	res := decodeReply(rp)
	if res == nil {
		return false
	}
	got, err := canonicalResult(res)
	return err == nil && bytes.Equal(got, want)
}

// sweepReply is one streamed /v1/sweep response.
type sweepReply struct {
	// Wall runs from the POST to the summary row.
	Wall    time.Duration
	Status  int
	Cells   []sweep.CellResult // stream order
	Summary *sweep.Result
	Err     error
}

// postSweep streams one sweep and collects its rows.
func postSweep(ctx context.Context, url string, spec sweep.Spec) sweepReply {
	body, err := json.Marshal(spec)
	if err != nil {
		return sweepReply{Err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return sweepReply{Err: err}
	}
	t := time.Now()
	resp, err := httpClient.Do(req)
	if err != nil {
		return sweepReply{Err: err}
	}
	defer resp.Body.Close()
	out := sweepReply{Status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		out.Err = fmt.Errorf("POST /v1/sweep: %s: %s", resp.Status, msg)
		return out
	}
	rd := bufio.NewReaderSize(resp.Body, 1<<20)
	for {
		line, err := rd.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var row sweep.StreamRow
			if jerr := json.Unmarshal(line, &row); jerr != nil {
				out.Err = fmt.Errorf("sweep row: %w", jerr)
				return out
			}
			switch row.Type {
			case "cell":
				out.Cells = append(out.Cells, *row.Cell)
			case "summary":
				out.Wall = time.Since(t)
				out.Summary = row.Summary
			default:
				out.Err = fmt.Errorf("sweep stream error row: %s", row.Error)
				return out
			}
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			out.Err = err
			return out
		}
	}
	if out.Summary == nil {
		out.Err = errors.New("sweep stream ended without a summary row")
	}
	return out
}

// canonicalCell renders a cell row in the canonical NDJSON form.
func canonicalCell(cr sweep.CellResult) ([]byte, error) {
	return json.Marshal(sweep.CanonicalCell(cr))
}

// sweepRef is the in-process answer of a sweep: canonical rows by grid
// index and the canonical summary.
type sweepRef struct {
	rows    map[int][]byte
	summary []byte
}

// check counts the cells of a streamed sweep that do not match the
// reference: failed or wrong rows, rows missing from the stream, and a
// summary that differs (counted as one).
func (ref sweepRef) check(sr sweepReply) (wrong int) {
	seen := make(map[int]bool, len(sr.Cells))
	for _, cr := range sr.Cells {
		got, err := canonicalCell(cr)
		want, ok := ref.rows[cr.Index]
		if err != nil || !ok || seen[cr.Index] || !cr.OK || !bytes.Equal(got, want) {
			wrong++
		}
		seen[cr.Index] = true
	}
	for idx := range ref.rows {
		if !seen[idx] {
			wrong++
		}
	}
	if sr.Summary == nil {
		return wrong + 1
	}
	if got, err := json.Marshal(sweep.CanonicalResult(sr.Summary)); err != nil || !bytes.Equal(got, ref.summary) {
		wrong++
	}
	return wrong
}

package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/metrics/testutil"
	"repro/internal/store"
	"repro/internal/sweep"
)

// crashSpec is the resume test grid: deterministic analyses plus a
// seed-driven simulation axis, so byte-equality is a real claim about
// seed stability across the crash boundary, not just about static
// verdicts.
const crashSpec = `{
  "name": "crashtest",
  "protocols": [{"spec": "flock:{N}"}],
  "params": [{"from": 3, "to": 8}],
  "kinds": ["stable", "simulate"],
  "sizes": ["{N}+1"],
  "options": {"seed": 42}
}`

// canonicalNDJSON re-encodes a sweep stream with every volatile field
// zeroed — the byte-comparable form of a run.
func canonicalNDJSON(t *testing.T, body []byte) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetEscapeHTML(false)
	for {
		var row sweep.StreamRow
		err := dec.Decode(&row)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decoding stream: %v", err)
		}
		switch row.Type {
		case "cell":
			c := sweep.CanonicalCell(*row.Cell)
			row.Cell = &c
		case "summary":
			row.Summary = sweep.CanonicalResult(row.Summary)
		default:
			t.Fatalf("stream error row: %s", row.Error)
		}
		if err := enc.Encode(row); err != nil {
			t.Fatal(err)
		}
	}
	return out.String()
}

func sweepBody(t *testing.T, h http.Handler, spec string) []byte {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestJournaledSweepCrashResumeByteIdentical is the acceptance criterion
// of the durable journal: a sweep aborted mid-flight (the in-process
// stand-in for SIGKILL — the client connection drops, cancelling the run
// with the journal partially filled) and resubmitted against a fresh
// engine over the same journal directory produces a canonical NDJSON
// stream byte-identical to a never-interrupted run's. Retention passes
// race both phases: an aggressive Retire between crash and resume must
// leave the in-progress WAL untouched, and a Retire after completion
// deletes the WAL so a further resubmission re-executes the grid — still
// byte-identically.
func TestJournaledSweepCrashResumeByteIdentical(t *testing.T) {
	baseline := canonicalNDJSON(t, sweepBody(t, NewHandler(engine.New(), Options{}), crashSpec))
	if n := strings.Count(baseline, "\n"); n != 13 { // 12 cells + summary
		t.Fatalf("baseline has %d rows, want 13", n)
	}

	dir := t.TempDir()
	js, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(engine.New(), Options{Journal: js}))
	resp, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(crashSpec))
	if err != nil {
		t.Fatal(err)
	}
	// Read a few rows, then kill the connection mid-sweep. Closing the
	// body cancels the request context; srv.Close waits for the handler to
	// unwind, so the journal file is released before the restart.
	dec := json.NewDecoder(resp.Body)
	for i := 0; i < 4; i++ {
		var row sweep.StreamRow
		if err := dec.Decode(&row); err != nil {
			t.Fatalf("reading row %d: %v", i, err)
		}
	}
	resp.Body.Close()
	srv.Close()

	// The dropped connection races the final cells, so the WAL may or may
	// not carry its done record. When the crash truly landed mid-flight,
	// run maximum-aggression retention against it: no done record, so
	// neither age nor size budget may touch it and replay must survive
	// intact. (The done outcome is exercised by the retire-and-reexecute
	// phase at the end of this test.)
	spec, err := sweep.ParseSpec([]byte(crashSpec))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := sweep.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := js.Sweep(hash)
	if err != nil {
		t.Fatal(err)
	}
	wasDone := probe.Done()
	probe.Close()
	if !wasDone {
		if stats, err := js.Retire(journal.Retention{Retain: time.Nanosecond, MaxBytes: 1}); err != nil {
			t.Fatal(err)
		} else if stats.Removed != 0 {
			t.Fatalf("retention touched an in-progress WAL: %+v", stats)
		}
	}

	js2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed := canonicalNDJSON(t, sweepBody(t, NewHandler(engine.New(), Options{Journal: js2}), crashSpec))
	if replayed := testutil.ToFloat64(js2.Metrics().ReplayedCells); replayed < 4 {
		t.Fatalf("resume replayed %v cells, want >= 4", replayed)
	}
	if resumed != baseline {
		t.Fatalf("resumed canonical stream differs from baseline:\n--- baseline ---\n%s--- resumed ---\n%s", baseline, resumed)
	}

	// Now the sweep is done: retention deletes its WAL, and resubmitting
	// the retired spec re-executes the whole grid to the same bytes.
	stats, err := js2.Retire(journal.Retention{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 1 {
		t.Fatalf("post-completion retention stats = %+v, want 1 removal", stats)
	}
	js3, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	recomputed := canonicalNDJSON(t, sweepBody(t, NewHandler(eng, Options{Journal: js3}), crashSpec))
	if recomputed != baseline {
		t.Fatalf("post-retention rerun differs from baseline:\n--- baseline ---\n%s--- rerun ---\n%s", baseline, recomputed)
	}
	if eng.Computations() == 0 {
		t.Fatal("post-retention rerun executed nothing; the deleted WAL should have forced recomputation")
	}
}

// TestJournaledCoordinatorWithWorker covers the journal on a coordinator
// with a live worker: half the grid is already journaled (as a crashed run
// would leave it), the spec is resubmitted, and the canonical stream equals
// the single-process one while the journal's range records — the
// dispatcher's OnDispatch calls — name only the cells that remained, all
// sent to the worker, which computes exactly those.
func TestJournaledCoordinatorWithWorker(t *testing.T) {
	baseline := canonicalNDJSON(t, sweepBody(t, NewHandler(engine.New(), Options{}), crashSpec))
	spec, err := sweep.ParseSpec([]byte(crashSpec))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := sweep.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sweep.Run(t.Context(), engine.New(), spec, sweep.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	js, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := js.Sweep(hash)
	if err != nil {
		t.Fatal(err)
	}
	if err := pre.Start(ref.TotalCells); err != nil {
		t.Fatal(err)
	}
	remaining := make(map[int]bool)
	for _, cr := range ref.Cells {
		if cr.Index%2 == 1 {
			remaining[cr.Index] = true
			continue
		}
		if err := pre.AppendCell(cr); err != nil {
			t.Fatal(err)
		}
	}
	pre.Close()

	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	worker := httptest.NewServer(NewHandler(engine.New(), Options{}))
	defer worker.Close()
	coord.Register("w1", worker.URL)
	js2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(engine.New(), Options{
		Journal:         js2,
		Cluster:         coord,
		ClusterDispatch: cluster.DispatchOptions{RangeCells: 2},
	})
	if got := canonicalNDJSON(t, sweepBody(t, h, crashSpec)); got != baseline {
		t.Fatalf("journaled coordinator stream differs from the single-process one:\n--- want ---\n%s--- got ---\n%s", baseline, got)
	}
	if replayed := testutil.ToFloat64(js2.Metrics().ReplayedCells); replayed != float64(ref.TotalCells-len(remaining)) {
		t.Fatalf("replayed %v cells, want %d", replayed, ref.TotalCells-len(remaining))
	}

	dispatched := make(map[int]bool)
	for _, rec := range walRanges(t, filepath.Join(dir, hash+".wal")) {
		if rec.Worker != "w1" {
			t.Errorf("range record for worker %q, want w1", rec.Worker)
		}
		for _, r := range rec.Cells {
			for i := r.From; i <= r.To; i++ {
				if !remaining[i] {
					t.Errorf("range record names journaled cell %d", i)
				}
				dispatched[i] = true
			}
		}
	}
	if len(dispatched) != len(remaining) {
		t.Errorf("range records name %d cells, want the %d remaining", len(dispatched), len(remaining))
	}
	if m := coord.Members(); len(m) != 1 || m[0].CellsServed != len(remaining) {
		t.Errorf("worker stats %+v, want %d cells served", m, len(remaining))
	}
}

// rangeRecord is the part of a journal "range" record the tests inspect.
type rangeRecord struct {
	Type   string             `json:"type"`
	Worker string             `json:"worker"`
	Cells  []sweep.IndexRange `json:"cells"`
}

// walRanges decodes the range records of a sweep WAL (frames of uint32 LE
// payload length, uint32 LE CRC, JSON payload).
func walRanges(t *testing.T, path string) []rangeRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []rangeRecord
	for len(data) >= 8 {
		n := int(binary.LittleEndian.Uint32(data[:4]))
		if len(data) < 8+n {
			t.Fatalf("torn WAL frame: %d of %d payload bytes", len(data)-8, n)
		}
		var rec rangeRecord
		if err := json.Unmarshal(data[8:8+n], &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type == "range" {
			out = append(out, rec)
		}
		data = data[8+n:]
	}
	return out
}

// TestJournaledSweepFullyReplayed: resubmitting a completed sweep executes
// nothing — the whole stream (and its summary) comes off the journal.
func TestJournaledSweepFullyReplayed(t *testing.T) {
	dir := t.TempDir()
	js, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	baseline := canonicalNDJSON(t, sweepBody(t, NewHandler(engine.New(), Options{Journal: js}), crashSpec))

	js2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	replayed := canonicalNDJSON(t, sweepBody(t, NewHandler(eng, Options{Journal: js2}), crashSpec))
	if replayed != baseline {
		t.Fatal("fully-replayed stream differs from the original")
	}
	if got := eng.Computations(); got != 0 {
		t.Fatalf("full replay still ran %d computations", got)
	}
}

// TestFinishedSweepReplaysAfterRetirePass: a retention pass that does not
// select a finished sweep's WAL leaves it whole, so resubmitting the spec
// still replays the archived stream without computing anything.
func TestFinishedSweepReplaysAfterRetirePass(t *testing.T) {
	dir := t.TempDir()
	js, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	baseline := canonicalNDJSON(t, sweepBody(t, NewHandler(engine.New(), Options{Journal: js}), crashSpec))
	stats, err := js.Retire(journal.Retention{Retain: 24 * time.Hour, MaxBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 0 {
		t.Fatalf("retention within budget removed %d WALs", stats.Removed)
	}

	js2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	replayed := canonicalNDJSON(t, sweepBody(t, NewHandler(eng, Options{Journal: js2}), crashSpec))
	if replayed != baseline {
		t.Fatal("stream replayed after a retention pass differs from the original")
	}
	if got := eng.Computations(); got != 0 {
		t.Fatalf("replay after a retention pass ran %d computations, want 0", got)
	}
}

// TestJournaledSweepConflict: the same spec submitted twice concurrently
// answers 409 on the second, instead of interleaving one journal file.
func TestJournaledSweepConflict(t *testing.T) {
	js, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(engine.New(), Options{Journal: js})
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Hold the spec's journal open, as an in-flight run of it would.
	spec, err := sweep.ParseSpec([]byte(crashSpec))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := sweep.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	held, err := js.Sweep(hash)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	dup, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(crashSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer dup.Body.Close()
	if dup.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate in-flight sweep got status %d, want 409", dup.StatusCode)
	}
}

// TestArtifactEndpoint pins the peer-fetch wire format: a served artifact
// round-trips the CRC frame and decodes into the payload ArtifactBytes
// returns; unknown kinds and absent hashes are 404.
func TestArtifactEndpoint(t *testing.T) {
	eng := engine.New()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng.SetArtifactStore(st)
	h := NewHandler(eng, Options{})
	_, res := post(t, h, "/v1/analyze", `{"kind":"stable","protocol":{"spec":"binary:5"}}`)
	hash := res.Protocol.Hash

	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/artifacts/stable/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact fetch status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := store.Decode(raw)
	if err != nil {
		t.Fatalf("served artifact frame invalid: %v", err)
	}
	want, ok, err := eng.ArtifactBytes(t.Context(), "stable", hash)
	if err != nil || !ok {
		t.Fatalf("ArtifactBytes: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(payload, want) {
		t.Fatal("served artifact differs from the engine's encoding")
	}

	for _, path := range []string{
		"/v1/artifacts/stable/deadbeef",
		"/v1/artifacts/nosuchkind/" + hash,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestOldFamilyIndexIgnored opens an artifact directory written by a
// server that still kept a per-family member index under the "family"
// artifact kind (key: hex SHA-256 of the template; payload: a v1 JSON
// list of param → member hash) and checks that nothing reads it any more:
// sweeps over that directory — computing, then restarted over the filled
// store — stream the same canonical NDJSON as a sweep over a clean
// directory, requests still carrying the retired family fields are
// served, the kind is not served over /v1/artifacts, and store GC still
// counts the leftover file and evicts it.
func TestOldFamilyIndexIgnored(t *testing.T) {
	const spec = `{
  "name": "old-family-index",
  "protocols": [{"spec": "binary:{N}"}],
  "params": [{"from": 3, "to": 6}],
  "kinds": ["stable", "simulate"],
  "sizes": ["{N}+1"],
  "options": {"seed": 9, "exactOracle": true}
}`
	const template = "binary:{N}"
	sum := sha256.Sum256([]byte(template))
	famKey := hex.EncodeToString(sum[:])

	oldDir := t.TempDir()
	st, err := store.Open(oldDir)
	if err != nil {
		t.Fatal(err)
	}
	var members []string
	for n := 3; n <= 6; n++ {
		entry, err := engine.New().Resolve(engine.ProtocolRef{Spec: fmt.Sprintf("binary:%d", n)})
		if err != nil {
			t.Fatal(err)
		}
		h, err := engine.Hash(entry.Protocol)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, fmt.Sprintf(`{"param":%d,"hash":%q}`, n, h))
	}
	payload := fmt.Sprintf(`{"v":1,"family":%q,"members":[%s]}`, template, strings.Join(members, ","))
	if err := st.Put("family", famKey, []byte(payload)); err != nil {
		t.Fatal(err)
	}
	famFile := filepath.Join(oldDir, "family", famKey)
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(famFile, old, old); err != nil {
		t.Fatal(err)
	}

	handlerOver := func(dir string) http.Handler {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New()
		eng.SetArtifactStore(st)
		return NewHandler(eng, Options{})
	}
	clean := canonicalNDJSON(t, sweepBody(t, handlerOver(t.TempDir()), spec))
	if got := canonicalNDJSON(t, sweepBody(t, handlerOver(oldDir), spec)); got != clean {
		t.Fatalf("sweep over the old directory differs from a clean one:\n got %s\nwant %s", got, clean)
	}
	h := handlerOver(oldDir) // a restart: stable cells are now store hits
	if got := canonicalNDJSON(t, sweepBody(t, h, spec)); got != clean {
		t.Fatalf("restarted sweep over the old directory differs from a clean one:\n got %s\nwant %s", got, clean)
	}

	rec, res := post(t, h, "/v1/analyze", `{"kind":"stable","protocol":{"spec":"binary:5"},"family":"binary:{N}","familyParam":5}`)
	if rec.Code != http.StatusOK || res.Stable == nil || res.Incremental != nil {
		t.Fatalf("request with retired family fields: status %d, result %s", rec.Code, rec.Body)
	}

	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/artifacts/family/" + famKey)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/artifacts/family: status %d, want 404", resp.StatusCode)
	}
	if _, err := os.Stat(famFile); err != nil {
		t.Fatalf("the old family entry must be left in place until GC: %v", err)
	}

	// GC: the scan counts every file on disk, the family entry included,
	// and a budget one byte under the total evicts the oldest entry — the
	// family index — first.
	diskBytes := func() int64 {
		var n int64
		err := filepath.WalkDir(oldDir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	onDisk := diskBytes()
	gst, err := store.Open(oldDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := gst.EnableGC(onDisk - 1); err != nil {
		t.Fatal(err)
	}
	defer gst.CloseGC()
	gst.RunGC()
	if _, err := os.Stat(famFile); !os.IsNotExist(err) {
		t.Fatalf("GC left the family entry in place (stat err %v)", err)
	}
	if got, want := gst.GCBytes(), diskBytes(); got != want || got > onDisk-int64(12+len(payload)) {
		t.Fatalf("after GC: %d bytes counted, %d on disk, want at most %d", got, want, onDisk-int64(12+len(payload)))
	}
}

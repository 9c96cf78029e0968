package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/flow"
	"repro/internal/serve/wire"
)

// decodeWireError decodes a non-2xx response body into the typed envelope
// and fails the test if the body is not one.
func decodeWireError(t *testing.T, body []byte) *wire.Error {
	t.Helper()
	var we wire.Error
	if err := json.Unmarshal(body, &we); err != nil || we.Code == "" {
		t.Fatalf("error body is not a wire.Error envelope: %s", body)
	}
	return &we
}

// TestHTTPErrorCodes pins the typed error envelope contract: every error
// path emits {code, op, message} JSON with a stable machine-readable code —
// clients branch on codes, never on message text.
func TestHTTPErrorCodes(t *testing.T) {
	m := NewManager(Options{})
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	do := func(method, path string, body []byte) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}

	// not_found: unknown session, on reads and mutations alike.
	for _, tc := range []struct{ method, path, op string }{
		{http.MethodGet, "/v1/sessions/nope", "info"},
		{http.MethodDelete, "/v1/sessions/nope", "evict"},
		{http.MethodPost, "/v1/sessions/nope/measure", "measure"},
		{http.MethodPost, "/v1/sessions/nope/compose", "compose"},
		{http.MethodPost, "/v1/sessions/nope/decompose", "decompose"},
		{http.MethodPost, "/v1/sessions/nope/restore", "restore"},
		{http.MethodGet, "/v1/sessions/nope/snapshot", "snapshot"},
	} {
		code, body := do(tc.method, tc.path, []byte(`{}`))
		if code != http.StatusNotFound {
			t.Fatalf("%s %s = %d, want 404", tc.method, tc.path, code)
		}
		we := decodeWireError(t, body)
		if we.Code != wire.CodeNotFound || we.Op != tc.op {
			t.Fatalf("%s %s error envelope %+v, want code=%s op=%s",
				tc.method, tc.path, we, wire.CodeNotFound, tc.op)
		}
	}

	// validation: a request the server understands but rejects.
	badCreate, _ := json.Marshal(CreateRequest{Name: "x", Source: Source{Profile: "D9"}})
	code, body := do(http.MethodPost, "/v1/sessions", badCreate)
	if code != http.StatusBadRequest {
		t.Fatalf("bad create = %d, want 400", code)
	}
	if we := decodeWireError(t, body); we.Code != wire.CodeValidation || we.Op != "create" {
		t.Fatalf("bad create envelope %+v", we)
	}

	// validation: a raw design whose net has two drivers is a load error,
	// not a handler panic, and leaves its name free for the next create.
	twoDrivers := json.RawMessage(`{"name":"bad","core":[0,0,10000,10000],` +
		`"insts":[{"name":"a","kind":2,"isInput":true},{"name":"b","kind":2,"isInput":true}],` +
		`"nets":[{"name":"n","driver":{"inst":"a","kind":0,"bit":0},"sinks":[{"inst":"b","kind":0,"bit":0}]}]}`)
	badDesign, _ := json.Marshal(CreateRequest{Name: "s1", Source: Source{Design: twoDrivers}})
	code, body = do(http.MethodPost, "/v1/sessions", badDesign)
	if code != http.StatusBadRequest {
		t.Fatalf("two-driver design create = %d, want 400", code)
	}
	if we := decodeWireError(t, body); we.Code != wire.CodeValidation || we.Op != "create" {
		t.Fatalf("two-driver design envelope %+v", we)
	}
	goodCreate, _ := json.Marshal(CreateRequest{Name: "s1", Source: testSource(), Config: SessionConfig{Workers: 1}})
	if code, body = do(http.MethodPost, "/v1/sessions", goodCreate); code/100 != 2 {
		t.Fatalf("create after a rejected design = %d: %s", code, body)
	}

	// validation on the new endpoint: a zero decompose config selects no
	// victims.
	if _, err := m.Create("dz", testSource(), SessionConfig{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	code, body = do(http.MethodPost, "/v1/sessions/dz/decompose", []byte(`{}`))
	if code != http.StatusBadRequest {
		t.Fatalf("zero-config decompose = %d, want 400", code)
	}
	if we := decodeWireError(t, body); we.Code != wire.CodeValidation || we.Op != "decompose" {
		t.Fatalf("zero-config decompose envelope %+v", we)
	}

	// body_too_large: the 64 MiB request-body bound.
	huge := append(bytes.Repeat([]byte(" "), maxRequestBytes+2), []byte(`{}`)...)
	code, body = do(http.MethodPost, "/v1/sessions/dz/decompose", huge)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", code)
	}
	if we := decodeWireError(t, body); we.Code != wire.CodeBodyTooLarge {
		t.Fatalf("oversized body envelope %+v", we)
	}

	// evicted: the session raced an LRU eviction. The HTTP mux resolves
	// names before the session acts, so the envelope mapping is pinned at
	// the writeError layer (a live handle returning ErrEvicted is exactly
	// the race the 410 covers).
	rec := httptest.NewRecorder()
	writeError(rec, "measure", statusFor(ErrEvicted), ErrEvicted)
	if rec.Code != http.StatusGone {
		t.Fatalf("evicted status = %d, want 410", rec.Code)
	}
	if we := decodeWireError(t, rec.Body.Bytes()); we.Code != wire.CodeEvicted || we.Op != "measure" {
		t.Fatalf("evicted envelope %+v", we)
	}
}

// TestHTTPDecomposeRestore drives the new decompose and restore endpoints
// end to end: bank a pair via a merge edit, decompose it by slack, restore
// the stranded bits, and check the counters and journal survive a snapshot
// round trip over HTTP.
func TestHTTPDecomposeRestore(t *testing.T) {
	m := NewManager(Options{})
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	post := func(path string, body, out any) int {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode/100 == 2 {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	src := testSource()
	var created CreateResponse
	if code := post("/v1/sessions", CreateRequest{Name: "eco", Source: src, Config: SessionConfig{Workers: 1}}, &created); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}

	// Bank a scan-compatible pair by probing merge edits (a rejected edit
	// reports 422 and leaves no trace).
	d, _, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, in := range d.Registers() {
		if !in.Fixed && !in.SizeOnly && in.Bits() == 1 && len(names) < 60 {
			names = append(names, in.Name)
		}
	}
	merged := false
probe:
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			var eres EditsResponse
			req := EditsRequest{Edits: []flow.Edit{flow.MergeGroup("eco_mbr", names[i], names[j])}}
			code := post("/v1/sessions/eco/edits", req, &eres)
			if code == http.StatusOK && eres.Error == nil {
				if len(eres.Merged) != 1 || eres.Merged[0] != "eco_mbr" {
					t.Fatalf("merge response %+v", eres)
				}
				merged = true
				break probe
			}
		}
	}
	if !merged {
		t.Fatal("no mergeable pair over HTTP")
	}

	var dres DecomposeResponse
	req := DecomposeRequest{Decompose: flow.DecomposeConfig{Budget: 2, SlackThresholdPS: 1e9}}
	if code := post("/v1/sessions/eco/decompose", req, &dres); code != http.StatusOK {
		t.Fatalf("decompose = %d", code)
	}
	if dres.Decompose.Decomposed == 0 || dres.Decompose.Parts < 2 {
		t.Fatalf("decompose outcome %+v", dres.Decompose)
	}
	if len(dres.Engines) == 0 {
		t.Fatal("decompose response missing engine summaries")
	}

	var rres RestoreResponse
	if code := post("/v1/sessions/eco/restore", struct{}{}, &rres); code != http.StatusOK {
		t.Fatalf("restore = %d", code)
	}
	if rres.Restore.Restored == 0 {
		t.Fatal("restore re-merged nothing")
	}

	var mres MeasureResponse
	if code := post("/v1/sessions/eco/measure", struct{}{}, &mres); code != http.StatusOK {
		t.Fatalf("measure = %d", code)
	}

	// Counters and snapshot round trip.
	resp, err := http.Get(ts.URL + "/v1/sessions/eco")
	if err != nil {
		t.Fatal(err)
	}
	var info InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Info.Decomposes != 1 {
		t.Fatalf("info.Decomposes = %d, want 1", info.Info.Decomposes)
	}

	resp, err = http.Get(ts.URL + "/v1/sessions/eco/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	snap.Name = "eco2"
	var restored CreateResponse
	if code := post("/v1/sessions/restore", snap, &restored); code != http.StatusCreated {
		t.Fatalf("snapshot restore = %d", code)
	}
	var m1, m2 MeasureResponse
	if code := post("/v1/sessions/eco/measure", struct{}{}, &m1); code != http.StatusOK {
		t.Fatalf("measure eco = %d", code)
	}
	if code := post("/v1/sessions/eco2/measure", struct{}{}, &m2); code != http.StatusOK {
		t.Fatalf("measure eco2 = %d", code)
	}
	if m1.Canonical != m2.Canonical {
		t.Fatalf("restored ECO session diverged:\nlive:\n%srestored:\n%s", m1.Canonical, m2.Canonical)
	}

	var stats ManagerStats
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The manager counter tracks live API calls only — snapshot replay
	// re-runs the pass inside the restored session without re-counting it
	// as new work (the session's own Decomposes counter does replay).
	if stats.Decomposes != 1 {
		t.Fatalf("stats.Decomposes = %d, want 1", stats.Decomposes)
	}
	_ = created
	_ = mres
}

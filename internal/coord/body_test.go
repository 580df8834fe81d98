package coord

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fp8quant/internal/harness"
	"fp8quant/internal/resultstore"
)

// sizedBody returns a JSON object {"worker":"aaa..."} of exactly n bytes,
// so a decoder reads all of it before the object closes.
func sizedBody(n int) []byte {
	const open, close = `{"worker":"`, `"}`
	return []byte(open + strings.Repeat("a", n-len(open)-len(close)) + close)
}

// TestBodyCap: every endpoint that decodes a request body answers 413
// to one byte over maxBodyBytes, and a body of exactly maxBodyBytes is
// decoded as usual.
func TestBodyCap(t *testing.T) {
	withHarnessState(t)
	e, _ := newTestExp("cap")
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t)})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	over := sizedBody(maxBodyBytes + 1)
	for _, path := range []string{"/v1/lease", "/v1/push", "/v1/workers"} {
		if code := post(path, over); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body = %d, want 413", path, len(over), code)
		}
	}
	if code := post("/v1/lease", sizedBody(maxBodyBytes)); code != http.StatusOK {
		t.Errorf("POST /v1/lease with a %d-byte body = %d, want 200", maxBodyBytes, code)
	}
}

// TestBodyTrailingData: a request body is one JSON value, so every
// endpoint that decodes one answers 400 to non-whitespace after it and
// decodes the value when only whitespace follows.
func TestBodyTrailingData(t *testing.T) {
	withHarnessState(t)
	e, _ := newTestExp("trail")
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t)})
	push := realPush(t, e, 0, "")
	for _, tc := range []struct {
		path string
		body []byte
	}{
		{"/v1/lease", []byte(`{"worker":"w"}`)},
		{"/v1/push", push},
		{"/v1/workers", []byte(`{"worker":"w"}`)},
	} {
		for _, tail := range []string{"x", "{}", `{"worker":"v"}`, " 1", "\n]"} {
			body := append(append([]byte(nil), tc.body...), tail...)
			rec := serve(t, c, tc.path, body)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("POST %s with %q after the value = %d, want 400", tc.path, tail, rec.Code)
			}
		}
		body := append(append([]byte(nil), tc.body...), " \n\t\r"...)
		if rec := serve(t, c, tc.path, body); rec.Code != http.StatusOK {
			t.Errorf("POST %s with whitespace after the value = %d %s, want 200", tc.path, rec.Code, rec.Body)
		}
	}
}

// fuzzStore is one fuzz process's store: the 3x2 test grid's manifest,
// recording the sse tier, and cell 0 pushed from an sse worker, written
// once. Each input gets a fresh coordinator over it (coord), and the
// input's cleanup puts the store's files back as seeded, so every input
// meets the same store without paying for a new one.
type fuzzStore struct {
	e     testExp
	dir   string
	store *resultstore.Store
	seed  map[string][]byte // file name → the seeded bytes
}

func newFuzzStore(f *testing.F, e testExp) *fuzzStore {
	f.Helper()
	s := &fuzzStore{e: e, dir: f.TempDir(), seed: map[string][]byte{}}
	var err error
	if s.store, err = resultstore.Open(s.dir); err != nil {
		f.Fatal(err)
	}
	c, err := New(Config{Experiments: []harness.Experiment{e}, Store: s.store})
	if err != nil {
		f.Fatal(err)
	}
	fp, payload := payloadFor(f, e, 0)
	if _, code, msg := c.push(PushRequest{Fingerprint: fp, Payload: payload, Computed: true, KernelVariant: "sse"}); code != http.StatusOK {
		f.Fatalf("seeding push = %d %s", code, msg)
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, ent := range ents {
		if s.seed[ent.Name()], err = os.ReadFile(filepath.Join(s.dir, ent.Name())); err != nil {
			f.Fatal(err)
		}
	}
	return s
}

// coord returns one input's coordinator over the seeded store; the
// input's cleanup restores the store.
func (s *fuzzStore) coord(t *testing.T) *Coordinator {
	t.Helper()
	t.Cleanup(func() { s.restore(t) })
	return newTestCoord(t, Config{Experiments: []harness.Experiment{s.e}, Store: s.store})
}

// restore removes every file an input added and rewrites every seeded
// file it changed or removed.
func (s *fuzzStore) restore(t *testing.T) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if _, ok := s.seed[ent.Name()]; !ok {
			if err := os.RemoveAll(filepath.Join(s.dir, ent.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, want := range s.seed {
		path := filepath.Join(s.dir, name)
		if got, err := os.ReadFile(path); err == nil && bytes.Equal(got, want) {
			continue
		}
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// realPush is the push a worker sends for cell idx of e, computed
// through harness.ComputeCell.
func realPush(t testing.TB, e testExp, idx int, variant string) []byte {
	t.Helper()
	a := e.spec.CellKey(e.spec.CellAt(idx)).Addr()
	r, _ := harness.ComputeCell(e, idx, a, nil)
	payload, err := resultstore.EncodeCell(a.Key, r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(PushRequest{Worker: "w", Fingerprint: a.FP, Payload: payload,
		Computed: true, KernelVariant: variant})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// withNext sets Next and Exiting on an encoded push.
func withNext(t testing.TB, body []byte, exiting bool) []byte {
	t.Helper()
	var req PushRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	req.Next, req.Exiting = true, exiting
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// cellFP is the fingerprint of cell idx of e.
func cellFP(t testing.TB, e testExp, idx int) string {
	t.Helper()
	fp, _ := payloadFor(t, e, idx)
	return fp
}

// serve POSTs body to path through the coordinator's handler and checks
// the answer is one the protocol defines.
func serve(t *testing.T, c *Coordinator, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed,
		http.StatusConflict, http.StatusRequestEntityTooLarge, http.StatusInternalServerError:
	default:
		t.Fatalf("POST %s %q answered %d", path, body, rec.Code)
	}
	return rec
}

// FuzzPushBody POSTs arbitrary bytes to /v1/push. The handler must not
// panic and must answer a protocol status; a 200 for a payload push
// must leave a cell that loads, and the store must stay fsck-clean.
func FuzzPushBody(f *testing.F) {
	withHarnessState(f)
	e, _ := newTestExp("fuzzpush")
	valid := realPush(f, e, 1, "sse")
	f.Add(valid)
	f.Add([]byte("{}"))
	f.Add(valid[:len(valid)/2])
	f.Add(realPush(f, e, 2, "avx2"))
	f.Add(append(realPush(f, e, 1, "sse"), ` {"worker":"w"}`...))
	f.Add(withNext(f, realPush(f, e, 1, "sse"), false))
	f.Add(withNext(f, realPush(f, e, 2, "sse"), true))
	f.Add(withNext(f, realPush(f, e, 2, "avx2"), false))
	f.Add([]byte(`{"worker":"w","next":true,"err":"boom","fingerprint":"` + cellFP(f, e, 3) + `"}`))
	f.Add([]byte(`{"next":true}`))
	fs := newFuzzStore(f, e)
	store := fs.store
	f.Fuzz(func(t *testing.T, body []byte) {
		c := fs.coord(t)
		rec := serve(t, c, "/v1/push", body)
		if rec.Code == http.StatusOK {
			var req PushRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("200 for an undecodable push: %v", err)
			}
			var pr PushResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
				t.Fatalf("200 push answer %q: %v", rec.Body.Bytes(), err)
			}
			if want := req.Next && !req.Exiting; (pr.Next != nil) != want {
				t.Fatalf("push with next %v, exiting %v answered next %+v", req.Next, req.Exiting, pr.Next)
			}
			if pr.Next != nil {
				switch pr.Next.Status {
				case StatusLease, StatusWait, StatusDone, StatusDraining:
				default:
					t.Fatalf("push answer's next has status %q", pr.Next.Status)
				}
			}
			if req.Err == "" {
				k, ok := cellKey(e.spec, req.Fingerprint)
				if !ok {
					t.Fatalf("200 for a push to unknown cell %s", req.Fingerprint)
				}
				if _, ok := store.Load(k.Addr()); !ok {
					t.Fatalf("200 push left cell %s unloadable", req.Fingerprint)
				}
			}
		}
		rep, err := store.Fsck(resultstore.FsckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Healthy() {
			t.Fatalf("push %q left a damaged store: %+v", body, rep.Findings)
		}
	})
}

// FuzzLeaseBody POSTs arbitrary bytes to /v1/lease: no panic, a
// protocol status, and a 200 that carries a known lease status.
func FuzzLeaseBody(f *testing.F) {
	withHarnessState(f)
	e, _ := newTestExp("fuzzlease")
	f.Add([]byte(`{"worker":"w"}`))
	f.Add([]byte("{}"))
	f.Add([]byte(`{"worker":"w`))
	f.Add(realPush(f, e, 2, "avx2"))
	f.Add([]byte(`{"worker":"w"}x`))
	fs := newFuzzStore(f, e)
	f.Fuzz(func(t *testing.T, body []byte) {
		c := fs.coord(t)
		rec := serve(t, c, "/v1/lease", body)
		if rec.Code != http.StatusOK {
			return
		}
		var req LeaseRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("200 for an undecodable lease request %q: %v", body, err)
		}
		var lr LeaseResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &lr); err != nil {
			t.Fatalf("200 lease answer %q: %v", rec.Body.Bytes(), err)
		}
		switch lr.Status {
		case StatusLease, StatusWait, StatusDone, StatusDraining:
		default:
			t.Fatalf("200 lease answer has status %q", lr.Status)
		}
	})
}

// cellKey finds the key of spec's cell with fingerprint fp.
func cellKey(spec harness.GridSpec, fp string) (resultstore.CellKey, bool) {
	for i := 0; i < spec.NumCells(); i++ {
		if k := spec.CellKey(spec.CellAt(i)); k.Fingerprint() == fp {
			return k, true
		}
	}
	return resultstore.CellKey{}, false
}

// TestAnswerBodyIsMarshalPlusNewline pins the bytes of an answer: a
// lease answer read off the wire, and an error answer whose message
// json.Marshal escapes, are each json.Marshal of the value plus "\n".
func TestAnswerBodyIsMarshalPlusNewline(t *testing.T) {
	withHarnessState(t)
	e, _ := newTestExp("body")
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t)})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/lease", "application/json", strings.NewReader(`{"worker":"w"}`))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var lr LeaseResponse
	if err := json.Unmarshal(got, &lr); err != nil || lr.Lease == nil {
		t.Fatalf("lease answer %q: %+v, %v", got, lr, err)
	}
	want, _ := json.Marshal(lr)
	if string(got) != string(want)+"\n" {
		t.Errorf("lease answer body = %q, want %q", got, string(want)+"\n")
	}

	rec := httptest.NewRecorder()
	v := errorResponse{"<a & b>\u2028"}
	writeJSON(rec, http.StatusTeapot, v)
	want, _ = json.Marshal(v)
	if got := rec.Body.String(); got != string(want)+"\n" {
		t.Errorf("error answer body = %q, want %q", got, string(want)+"\n")
	}
	if rec.Code != http.StatusTeapot || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("error answer: code %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
}

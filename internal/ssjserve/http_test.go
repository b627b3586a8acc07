package ssjserve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHTTPRoundTrip(t *testing.T) {
	s := testService(t, 150, Options{Threshold: 0.7, Workers: 2})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	post := func(path string, body any, out any) *http.Response {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK && out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp
	}

	// Ingest a record, then match its near-duplicate over HTTP.
	rec := RecordJSON{RID: 50001, Fields: []string{"online similarity join service", "vernica carey li"}}
	var addReply AddReply
	if resp := post("/add", rec, &addReply); resp.StatusCode != http.StatusOK {
		t.Fatalf("/add status %d", resp.StatusCode)
	}
	if addReply.Records != 151 {
		t.Fatalf("/add reports %d records, want 151", addReply.Records)
	}

	probe := RecordJSON{RID: 50002, Fields: []string{"online similarity join service", "vernica carey li"}}
	var matchReply MatchReply
	if resp := post("/match", probe, &matchReply); resp.StatusCode != http.StatusOK {
		t.Fatalf("/match status %d", resp.StatusCode)
	}
	found := false
	for _, p := range matchReply.Pairs {
		if p.Left.RID == rec.RID {
			found = true
			if p.Sim != 1 {
				t.Fatalf("duplicate matched at sim %v", p.Sim)
			}
			if p.Right.RID != probe.RID {
				t.Fatalf("probe on wrong side: %+v", p)
			}
		}
	}
	if !found {
		t.Fatalf("ingested record not matched: %+v", matchReply.Pairs)
	}

	// Stats and health.
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Queries != 1 || st.Adds != 1 || st.Records != 151 {
		t.Fatalf("stats after round trip: %+v", st)
	}
	if resp, err = http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	// Malformed record and wrong method.
	badResp, err := http.Post(srv.URL+"/match", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", badResp.StatusCode)
	}
	getResp, err := http.Get(srv.URL + "/match")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /match: status %d", getResp.StatusCode)
	}
}

func TestHTTPMatchEqualsDirect(t *testing.T) {
	s := testService(t, 200, Options{Threshold: 0.7, Workers: 2})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	probes := genRecords(rand.New(rand.NewSource(23)), 30, 50)
	for _, probe := range probes {
		b, _ := json.Marshal(fromRecord(probe))
		resp, err := http.Post(srv.URL+"/match", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var reply MatchReply
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := s.ix.Match(probe)
		if len(reply.Pairs) != len(want) {
			t.Fatalf("probe %d: HTTP gave %d pairs, direct %d", probe.RID, len(reply.Pairs), len(want))
		}
	}
}

// TestHTTPBodyLimit: /match and /add read at most maxBodyBytes of a
// request body and answer 413 to a longer one, without indexing it; a
// record that fits is served as before.
func TestHTTPBodyLimit(t *testing.T) {
	s := testService(t, 50, Options{Threshold: 0.7, Workers: 2})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	post := func(path string, titleBytes int) int {
		t.Helper()
		b, _ := json.Marshal(RecordJSON{RID: 70001, Fields: []string{strings.Repeat("x ", titleBytes/2), "a"}})
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, path := range []string{"/match", "/add"} {
		if code := post(path, maxBodyBytes); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a body over the limit: status %d, want 413", path, code)
		}
		if code := post(path, maxBodyBytes/2); code != http.StatusOK {
			t.Fatalf("%s with a body under the limit: status %d", path, code)
		}
	}
	if st := s.Stats(); st.Records != 51 || st.Adds != 1 || st.Queries != 1 {
		t.Fatalf("after one accepted and one refused call per endpoint: %+v", st)
	}
}

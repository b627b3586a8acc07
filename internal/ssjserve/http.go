package ssjserve

import (
	"encoding/json"
	"errors"
	"net/http"

	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/records"
)

// RecordJSON is the wire form of a record.
type RecordJSON struct {
	RID    uint64   `json:"rid"`
	Fields []string `json:"fields"`
}

func toRecord(r RecordJSON) records.Record { return records.Record{RID: r.RID, Fields: r.Fields} }
func fromRecord(r records.Record) RecordJSON {
	return RecordJSON{RID: r.RID, Fields: r.Fields}
}

// PairJSON is the wire form of one answer pair: the indexed record on
// the left, the probe on the right.
type PairJSON struct {
	Left  RecordJSON `json:"left"`
	Right RecordJSON `json:"right"`
	Sim   float64    `json:"sim"`
}

// MatchReply is the POST /match response body.
type MatchReply struct {
	Pairs []PairJSON `json:"pairs"`
}

// AddReply is the POST /add response body.
type AddReply struct {
	Records int `json:"records"`
}

// NewHandler returns the service's HTTP API:
//
//	POST /match   body RecordJSON        → MatchReply
//	POST /add     body RecordJSON        → AddReply
//	GET  /stats                          → Stats
//	GET  /healthz                        → 200 "ok"
//
// Query cancellation follows the request context: a client that
// disconnects mid-query abandons it.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/match", func(w http.ResponseWriter, r *http.Request) {
		var rec RecordJSON
		if !decodeRecord(w, r, &rec) {
			return
		}
		pairs, err := s.Match(r.Context(), toRecord(rec))
		if err != nil {
			httpError(w, err)
			return
		}
		reply := MatchReply{Pairs: make([]PairJSON, len(pairs))}
		for i, p := range pairs {
			reply.Pairs[i] = PairJSON{Left: fromRecord(p.Left), Right: fromRecord(p.Right), Sim: p.Sim}
		}
		writeJSON(w, reply)
	})
	mux.HandleFunc("/add", func(w http.ResponseWriter, r *http.Request) {
		var rec RecordJSON
		if !decodeRecord(w, r, &rec) {
			return
		}
		if err := s.Add(toRecord(rec)); err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, AddReply{Records: s.ix.Len()})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

// maxBodyBytes bounds a /match or /add body, memory a client controls (a
// record is a few hundred bytes); a longer one is answered 413.
const maxBodyBytes = 1 << 20

func decodeRecord(w http.ResponseWriter, r *http.Request, rec *RecordJSON) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(rec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad record: "+err.Error(), code)
	}
	return err == nil
}

func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, mapreduce.ErrCanceled):
		// Client went away or canceled; 499-style, but stay standard.
		code = http.StatusRequestTimeout
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), code)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

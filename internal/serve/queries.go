package serve

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro"
)

// CodeNoQuery: the query id names no currently running statement — it
// finished, was already killed and unwound, or never existed.
const CodeNoQuery = "query_not_found"

// activeQueryJSON is one entry of GET /v1/queries.
type activeQueryJSON struct {
	QueryID   string         `json:"query_id"`
	Kind      string         `json:"kind"`
	SQL       string         `json:"sql"`
	Phase     string         `json:"phase"`
	ElapsedMS int64          `json:"elapsed_ms"`
	MemBytes  int64          `json:"mem_bytes,omitempty"`
	Killed    bool           `json:"killed,omitempty"`
	Operators []activeOpJSON `json:"operators,omitempty"`
}

type activeOpJSON struct {
	Op      string `json:"op"`
	Rows    int    `json:"rows"`
	Batches int    `json:"batches,omitempty"`
}

// handleQueries renders the DB's active-statement registry: everything
// running right now, with live per-operator row counts. The route is
// counted but not drain-gated — an operator diagnosing a stuck drain
// needs to see what is still in flight.
func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	active := s.cfg.DB.ActiveQueries()
	out := struct {
		Queries []activeQueryJSON `json:"queries"`
	}{Queries: make([]activeQueryJSON, 0, len(active))}
	for _, q := range active {
		j := activeQueryJSON{
			QueryID:   q.ID.String(),
			Kind:      q.Kind,
			SQL:       q.SQL,
			Phase:     q.Phase,
			ElapsedMS: q.Elapsed.Milliseconds(),
			MemBytes:  q.MemBytes,
			Killed:    q.Killed,
		}
		for _, op := range q.Operators {
			j.Operators = append(j.Operators, activeOpJSON{Op: op.Op, Rows: op.Rows, Batches: op.Batches})
		}
		out.Queries = append(out.Queries, j)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// handleKill cancels one running statement. Like /v1/queries it bypasses
// the drain gate: killing a wedged query is exactly what un-sticks a
// drain.
func (s *Server) handleKill(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("id")
	id, err := repro.ParseQueryID(raw)
	if err != nil {
		s.writeCode(w, http.StatusBadRequest, CodeBadRequest, "invalid query id: "+raw, 0)
		return
	}
	if err := s.cfg.DB.Kill(id); err != nil {
		if errors.Is(err, repro.ErrNoQuery) {
			s.writeCode(w, http.StatusNotFound, CodeNoQuery, "no such query: "+id.String(), 0)
			return
		}
		s.writeCode(w, http.StatusInternalServerError, repro.CodeInternal, err.Error(), id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Status  string `json:"status"`
		QueryID string `json:"query_id"`
	}{Status: "killed", QueryID: id.String()})
}

package portal

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/auth"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// installAdmin registers the administrative and observability endpoints:
// node up/down (admin only), node heartbeats, stale-node queries (faculty
// and admin), and the metrics exposition.
func (s *Server) installAdmin(mux *http.ServeMux) {
	s.route(mux, "GET /api/metrics", s.handleMetrics)
	s.route(mux, "GET /metrics", s.handlePrometheus)
	s.route(mux, "POST /api/cluster/nodes/{id}/down", s.withRole(auth.RoleAdmin, s.handleNodeDown))
	s.route(mux, "POST /api/cluster/nodes/{id}/up", s.withRole(auth.RoleAdmin, s.handleNodeUp))
	s.route(mux, "POST /api/cluster/nodes/{id}/heartbeat", s.withAuth(s.handleNodeHeartbeat))
	s.route(mux, "GET /api/cluster/stale", s.withRole(auth.RoleFaculty, s.handleStaleNodes))
	s.route(mux, "GET /api/cluster/events", s.withAuth(s.handleSchedulerEvents))
}

// handleSchedulerEvents streams the scheduler's recent activity feed; the
// since parameter lets clients poll incrementally by sequence number.
func (s *Server) handleSchedulerEvents(w http.ResponseWriter, r *http.Request, _ *auth.Session) {
	var since int64
	if raw := r.URL.Query().Get("since"); raw != "" {
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || n < 0 {
			writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, "bad since sequence number"))
			return
		}
		since = n
	}
	events := s.Sched.Events(since)
	type eventJSON struct {
		Seq    int64     `json:"seq"`
		Time   time.Time `json:"time"`
		Kind   string    `json:"kind"`
		JobID  string    `json:"job_id"`
		Nodes  []string  `json:"nodes,omitempty"`
		Detail string    `json:"detail,omitempty"`
	}
	out := make([]eventJSON, len(events))
	for i, e := range events {
		nodes := make([]string, len(e.Nodes))
		for j, n := range e.Nodes {
			nodes[j] = n.String()
		}
		out[i] = eventJSON{
			Seq: e.Seq, Time: e.Time, Kind: e.Kind.String(),
			JobID: e.JobID, Nodes: nodes, Detail: e.Detail,
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

// withRole wraps withAuth and additionally requires at least the given role
// (student < faculty < admin).
func (s *Server) withRole(min auth.Role, next func(http.ResponseWriter, *http.Request, *auth.Session)) http.HandlerFunc {
	return s.withAuth(func(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
		if sess.Role < min {
			writeError(w, r, errf(http.StatusForbidden, CodeForbidden, "requires "+min.String()+" role"))
			return
		}
		next(w, r, sess)
	})
}

// handleMetrics serves the registry as JSON. Deliberately unauthenticated,
// like most metrics endpoints, and carrying no per-user data.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.metricsRegistry().WriteJSON(w)
}

// handlePrometheus serves the Prometheus text exposition format, so a stock
// scrape config can collect the portal without any adapter.
func (s *Server) handlePrometheus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metricsRegistry().WritePrometheus(w)
}

func (s *Server) metricsRegistry() *metrics.Registry {
	if s.Metrics != nil {
		return s.Metrics
	}
	return metrics.Default
}

// parseNodeID turns the path form "s2n07" into a NodeID.
func parseNodeID(raw string) (topology.NodeID, bool) {
	// Expected form: s<digit+>n<digit+>
	if len(raw) < 4 || raw[0] != 's' {
		return topology.NodeID{}, false
	}
	nIdx := -1
	for i := 1; i < len(raw); i++ {
		if raw[i] == 'n' {
			nIdx = i
			break
		}
	}
	if nIdx <= 1 || nIdx == len(raw)-1 {
		return topology.NodeID{}, false
	}
	seg, err1 := strconv.Atoi(raw[1:nIdx])
	idx, err2 := strconv.Atoi(raw[nIdx+1:])
	if err1 != nil || err2 != nil || seg < 0 || idx < 0 {
		return topology.NodeID{}, false
	}
	return topology.NodeID{Segment: seg, Index: idx}, true
}

func (s *Server) handleNodeDown(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	id, ok := parseNodeID(r.PathValue("id"))
	if !ok {
		writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, "bad node id; want sXnYY"))
		return
	}
	if err := s.Cluster.MarkDown(id); err != nil {
		writeError(w, r, errf(http.StatusNotFound, CodeNotFound, err.Error()))
		return
	}
	s.Log.Warnf("node %v marked down by %s", id, sess.User)
	s.writeJSON(w, http.StatusOK, nodeStateResponse{Node: id.String(), State: "down"})
}

// nodeStateResponse acknowledges a node lifecycle action; State is empty for
// a plain heartbeat.
type nodeStateResponse struct {
	Node  string `json:"node"`
	State string `json:"state,omitempty"`
}

func (s *Server) handleNodeUp(w http.ResponseWriter, r *http.Request, sess *auth.Session) {
	id, ok := parseNodeID(r.PathValue("id"))
	if !ok {
		writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, "bad node id; want sXnYY"))
		return
	}
	if err := s.Cluster.MarkUp(id); err != nil {
		writeError(w, r, errf(http.StatusNotFound, CodeNotFound, err.Error()))
		return
	}
	s.Log.Infof("node %v returned to service by %s", id, sess.User)
	s.writeJSON(w, http.StatusOK, nodeStateResponse{Node: id.String(), State: "up"})
}

func (s *Server) handleNodeHeartbeat(w http.ResponseWriter, r *http.Request, _ *auth.Session) {
	id, ok := parseNodeID(r.PathValue("id"))
	if !ok {
		writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, "bad node id; want sXnYY"))
		return
	}
	if err := s.Cluster.Heartbeat(id); err != nil {
		writeError(w, r, errf(http.StatusNotFound, CodeNotFound, err.Error()))
		return
	}
	s.writeJSON(w, http.StatusOK, nodeStateResponse{Node: id.String()})
}

func (s *Server) handleStaleNodes(w http.ResponseWriter, r *http.Request, _ *auth.Session) {
	maxAge := 5 * time.Minute
	if raw := r.URL.Query().Get("max_age"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			writeError(w, r, errf(http.StatusBadRequest, CodeInvalidArgument, "bad max_age duration"))
			return
		}
		maxAge = d
	}
	stale := s.Cluster.StaleNodes(maxAge)
	out := make([]string, len(stale))
	for i, id := range stale {
		out[i] = id.String()
	}
	s.writeJSON(w, http.StatusOK, out)
}

package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// handleJobEvents streams a job's event log as server-sent events: a
// cursor into the record's log (since), written from the first retained
// event until finish, the client disconnecting, or the server draining.
// Late subscribers still see "submit", and no subscriber has a buffer of
// its own. An event pruned from the log before this subscriber read it is
// a gap in Seq, counted in finereg_serve_sse_dropped_total. Each event
// renders as
//
//	id: <seq>
//	event: <kind>
//	data: <Event JSON>
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	rec := s.lookup(r.PathValue("id"))
	if rec == nil {
		WriteJSON(w, http.StatusNotFound, errorBody{Error: "serve: unknown job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteJSON(w, http.StatusInternalServerError,
			errorBody{Error: "serve: response writer does not support streaming"})
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	s.mSSEOpen.Add(1)
	defer s.mSSEOpen.Add(-1)

	var last int64
	for {
		evs, wake := rec.since(last)
		if wake != nil {
			select {
			case <-wake:
				continue
			case <-r.Context().Done():
			case <-s.drainCh:
			}
			return
		}
		for _, ev := range evs {
			if gap := ev.Seq - last - 1; gap > 0 {
				s.mSSEDropped.Add(gap)
			}
			last = ev.Seq
			if !writeSSE(w, ev) {
				return
			}
		}
		fl.Flush()
		if evs[len(evs)-1].Kind == eventFinish {
			return
		}
	}
}

// writeSSE renders one event; reports false on a write error (client
// gone).
func writeSSE(w http.ResponseWriter, ev Event) bool {
	data, err := json.Marshal(ev)
	if err != nil {
		return false
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
	return err == nil
}

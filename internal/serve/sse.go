package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// handleJobEvents streams a job's lifecycle as server-sent events: the
// recorded history first (so late subscribers still see "submit"), then
// live events until the job finishes, the client disconnects, or the
// server drains. Each event renders as
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

	past, ch, cancel := rec.subscribe()
	defer cancel()
	s.mSSEOpen.Add(1)
	defer s.mSSEOpen.Add(-1)

	for _, ev := range past {
		if !writeSSE(w, ev) {
			return
		}
	}
	fl.Flush()
	if len(past) > 0 && past[len(past)-1].Kind == eventFinish {
		return // already terminal; history was the whole stream
	}

	for {
		select {
		case ev := <-ch:
			if !writeSSE(w, ev) {
				return
			}
			fl.Flush()
			if ev.Kind == eventFinish {
				return
			}
		case <-rec.done:
			// The terminal event may have raced past the subscription (or
			// been dropped on lag); emit the definitive finish event from
			// the record and stop.
			drainFinish(w, fl, rec, ch)
			return
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			return
		}
	}
}

// drainFinish flushes any buffered events and guarantees the stream ends
// with the finish event.
func drainFinish(w http.ResponseWriter, fl http.Flusher, rec *record, ch chan Event) {
	sawFinish := false
	for {
		select {
		case ev := <-ch:
			if !writeSSE(w, ev) {
				return
			}
			sawFinish = sawFinish || ev.Kind == eventFinish
		default:
			if !sawFinish {
				rec.mu.Lock()
				var last Event
				if n := len(rec.events); n > 0 {
					last = rec.events[n-1]
				}
				rec.mu.Unlock()
				if last.Kind == eventFinish {
					writeSSE(w, last)
				}
			}
			fl.Flush()
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

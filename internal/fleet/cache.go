package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"finereg/internal/runner"
	"finereg/internal/serve"
)

// The remote-cache wire protocol: results keyed by the same hex SHA-256
// job keys every other cache tier uses.
//
//	GET /v1/cache/{key}  -> 200 + Result JSON, or 404
//	PUT /v1/cache/{key}  <- Result JSON; 204
//
// The coordinator serves it over its own runner.Cache (the fleet's shared
// tier); workers mount a CacheClient as their cache's Remote, making the
// coordinator their L3 behind process memory and local disk.

// maxCacheBody bounds accepted PUT bodies; a Result is a metrics struct
// plus optional per-window floats, far below this.
const maxCacheBody = 16 << 20

// validKey reports whether k looks like a runner.Job key (64 hex chars) —
// anything else is rejected before touching the filesystem-backed cache.
func validKey(k string) bool {
	if len(k) != 64 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// cacheServer exposes a runner.Cache as the fleet's shared result store.
type cacheServer struct{ cache *runner.Cache }

func (cs cacheServer) handleGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		http.Error(w, "fleet: malformed cache key", http.StatusBadRequest)
		return
	}
	res, _, ok := cs.cache.Get(key)
	if !ok {
		http.Error(w, "fleet: cache miss", http.StatusNotFound)
		return
	}
	serve.WriteJSON(w, http.StatusOK, res)
}

func (cs cacheServer) handlePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		http.Error(w, "fleet: malformed cache key", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxCacheBody))
	if err != nil {
		http.Error(w, "fleet: reading body", http.StatusBadRequest)
		return
	}
	var res runner.Result
	if err := json.Unmarshal(body, &res); err != nil || res.Metrics == nil {
		http.Error(w, "fleet: malformed result", http.StatusBadRequest)
		return
	}
	cs.cache.Put(key, &res)
	w.WriteHeader(http.StatusNoContent)
}

// CacheClient implements runner.RemoteTier over the fleet cache protocol:
// install it as a worker cache's Remote to make the coordinator the
// worker's shared L3 tier. Every failure — transport, status, decode — is
// a miss or a dropped write, never an error: the remote tier accelerates,
// it is not a correctness dependency.
type CacheClient struct {
	// Base is the coordinator root, e.g. "http://coordinator:8321".
	Base string
	// HTTP is the transport (nil = a client with a short timeout, so a
	// wedged coordinator degrades lookups to misses instead of stalling
	// simulations).
	HTTP *http.Client
}

var _ runner.RemoteTier = (*CacheClient)(nil)

// client is the request builder over c's coordinator and transport.
func (c *CacheClient) client() *serve.Client {
	hc := c.HTTP
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	return &serve.Client{Base: c.Base, HTTP: hc}
}

// Get fetches key from the coordinator; any failure is a miss.
func (c *CacheClient) Get(key string) (*runner.Result, bool) {
	var res runner.Result
	err := c.client().Call(context.Background(), http.MethodGet, "/v1/cache/"+key, nil, &res)
	if err != nil || res.Metrics == nil {
		return nil, false
	}
	return &res, true
}

// Put stores key on the coordinator, best effort.
func (c *CacheClient) Put(key string, r *runner.Result) {
	c.client().Call(context.Background(), http.MethodPut, "/v1/cache/"+key, r, nil)
}

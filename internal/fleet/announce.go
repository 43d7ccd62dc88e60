package fleet

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"finereg/internal/serve"
)

// RegisterWorker announces a worker's base URL to a coordinator (POST
// /v1/fleet/workers). Registration is idempotent on the coordinator, so
// workers call this periodically as a heartbeat-by-reannouncement: a
// worker the coordinator demoted (or a coordinator that restarted and
// forgot its fleet) re-enlists on the next announcement.
func RegisterWorker(ctx context.Context, coordinator, self string, hc *http.Client) error {
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	c := serve.Client{Base: coordinator, HTTP: hc}
	if err := c.Call(ctx, http.MethodPost, "/v1/fleet/workers", registerBody{URL: self}, nil); err != nil {
		return fmt.Errorf("fleet: registering with coordinator %s: %w", coordinator, err)
	}
	return nil
}

// AnnounceLoop registers self with the coordinator every interval until
// ctx ends, logging nothing and giving up never — a coordinator outage
// must not take workers down with it.
func AnnounceLoop(ctx context.Context, coordinator, self string, every time.Duration, hc *http.Client) {
	if every <= 0 {
		every = 5 * time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		RegisterWorker(ctx, coordinator, self, hc)
		select {
		case <-t.C:
		case <-ctx.Done():
			return
		}
	}
}

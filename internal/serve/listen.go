package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ListenAndDrain serves handler on addr until SIGINT/SIGTERM (or ctx is
// cancelled), then drains: shutdown gets drainTimeout to finish in-flight
// work before the HTTP listener stops. It is the whole process lifecycle of
// finereg-serve and finereg-fleet; name prefixes its stderr lines. Returns
// a listen or serve error, nil after a drain.
func ListenAndDrain(ctx context.Context, name, addr string, handler http.Handler,
	shutdown func(context.Context) error, drainTimeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Header and idle timeouts only: SSE event streams are long-lived, so
	// a whole-request read or write deadline would cut them off.
	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "%s: listening on %s\n", name, ln.Addr())

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "\n%s: draining (up to %s)...\n", name, drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Service first: draining closes SSE streams and answers submissions
	// with 503 while in-flight jobs finish. Only then stop the HTTP
	// listener — the other order would leave hs.Shutdown waiting on SSE
	// connections that only terminate once the service drains.
	if err := shutdown(dctx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "%s: drain deadline hit, in-flight work stopped\n", name)
	}
	// The process exits either way; a connection still open at the deadline
	// dies with it.
	_ = hs.Shutdown(dctx)
	fmt.Fprintf(os.Stderr, "%s: bye\n", name)
	return nil
}

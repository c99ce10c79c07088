package abnn2

import (
	"context"
	"fmt"
	"net"
	"time"

	"abnn2/internal/transport"
)

// TCP dialing with capped, jittered exponential backoff. A freshly
// started server (or a listener bound an instant ago on a loaded
// machine) can reject the first connection attempts; retrying with
// backoff makes client startup robust without hanging on real failures —
// the context bounds the total wait. The jitter spreads out the retries
// of many clients dialing the same restarted server, so they do not
// reconnect as a thundering herd on the same backoff schedule.

const (
	dialInitialBackoff = 50 * time.Millisecond
	dialMaxBackoff     = 2 * time.Second
	dialAttemptTimeout = 2 * time.Second
)

// DialTCP connects to a TCP abnn2 endpoint and returns the framed
// connection. Failed attempts are retried with capped exponential
// backoff (50ms doubling to 2s, each wait jittered over ±50%) until ctx
// is cancelled or its deadline passes; use context.WithTimeout to bound
// the total dial time.
func DialTCP(ctx context.Context, addr string) (Conn, error) {
	d := net.Dialer{Timeout: dialAttemptTimeout}
	backoff := dialInitialBackoff
	var lastErr error
	for {
		c, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return Stream(c), nil
		}
		lastErr = err
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("abnn2: dial %s: %w (last attempt: %v)", addr, ctx.Err(), lastErr)
		case <-time.After(transport.Jitter(backoff)):
		}
		if backoff *= 2; backoff > dialMaxBackoff {
			backoff = dialMaxBackoff
		}
	}
}

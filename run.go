package tunio

import (
	"context"
	"sync"

	"tunio/internal/metrics"
)

// Run is a live (or finished) tuning session: a progress stream, a cancel
// switch, and the eventual result. All methods are safe for concurrent
// use from any goroutine.
type Run struct {
	tenant string
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	points   []metrics.Point
	online   []OnlineEvent
	dres     *DriftResult
	changed  chan struct{} // closed and replaced on every state change
	finished bool
	res      *Result
	err      error
}

// Tenant returns the tenant the session is attributed to.
func (r *Run) Tenant() string { return r.tenant }

// Cancel aborts the session between evaluations. Wait then returns an
// error wrapping context.Canceled. Canceling a finished run is a no-op.
func (r *Run) Cancel() { r.cancel() }

// Done returns a channel closed when the session has finished (result,
// failure, or cancellation).
func (r *Run) Done() <-chan struct{} { return r.done }

// Wait blocks until the session finishes and returns its outcome.
func (r *Run) Wait() (*Result, error) {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.res, r.err
}

// Result returns the outcome without blocking; ok is false while the
// session is still running.
func (r *Run) Result() (res *Result, err error, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.res, r.err, r.finished
}

// Points returns a copy of the curve points recorded so far, starting at
// index from. The full prefix is retained for the session's lifetime, so
// a late subscriber replays from the beginning.
func (r *Run) Points(from int) []metrics.Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from >= len(r.points) {
		return nil
	}
	return append([]metrics.Point(nil), r.points[from:]...)
}

// Events streams every curve point in order: buffered points replay
// first, live points follow as iterations complete. The channel closes
// when the session has finished and every point was delivered, or when
// ctx is canceled. Multiple concurrent subscribers each get the full
// ordered sequence.
func (r *Run) Events(ctx context.Context) <-chan metrics.Point {
	return stream(ctx, r, &r.points)
}

// OnlineEvents streams an online session's progress in order: buffered
// window and re-tune events replay first, live ones follow. The channel
// closes when the session has finished and every event was delivered,
// or when ctx is canceled. One-shot sessions close it with no events.
func (r *Run) OnlineEvents(ctx context.Context) <-chan OnlineEvent {
	return stream(ctx, r, &r.online)
}

// stream is the replay-then-live subscription behind Events and
// OnlineEvents. buf is one of r's append-only buffers, read under r.mu.
func stream[T any](ctx context.Context, r *Run, buf *[]T) <-chan T {
	if ctx == nil {
		ctx = context.Background()
	}
	ch := make(chan T)
	go func() {
		defer close(ch)
		next := 0
		for {
			r.mu.Lock()
			batch := append([]T(nil), (*buf)[next:]...)
			changed := r.changed
			finished := r.finished
			r.mu.Unlock()
			for _, v := range batch {
				select {
				case ch <- v:
				case <-ctx.Done():
					return
				}
			}
			next += len(batch)
			if finished && len(batch) == 0 {
				return
			}
			if len(batch) > 0 {
				continue // re-check for what arrived while sending
			}
			select {
			case <-changed:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch
}

// Drift returns the online session's full result; ok is false while
// the session is running, for one-shot sessions, and for online
// sessions that failed before producing a result.
func (r *Run) Drift() (*DriftResult, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dres, r.dres != nil
}

// appendAndWake appends v to buf, one of r's buffers, and wakes every
// subscriber.
func appendAndWake[T any](r *Run, buf *[]T, v T) {
	r.mu.Lock()
	*buf = append(*buf, v)
	r.wakeLocked()
	r.mu.Unlock()
}

// wakeLocked releases everyone waiting on r.changed. Callers hold r.mu.
func (r *Run) wakeLocked() {
	close(r.changed)
	r.changed = make(chan struct{})
}

// setDrift records the online result before finish.
func (r *Run) setDrift(d *DriftResult) {
	r.mu.Lock()
	r.dres = d
	r.mu.Unlock()
}

// finish records the outcome and wakes everyone.
func (r *Run) finish(res *Result, err error) {
	r.mu.Lock()
	r.res = res
	r.err = err
	r.finished = true
	r.wakeLocked()
	r.mu.Unlock()
	close(r.done)
}

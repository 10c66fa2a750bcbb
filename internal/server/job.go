package server

import (
	"context"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// job is what the shared worker pool pulls off the bounded queue:
// campaigns and sweeps ride the same queue, so QueueDepth bounds (and
// 429 backpressure covers) the server's total admitted work.
type job interface {
	jobCtx() context.Context
	// abort finishes the job as cancelled without running it (drain, or
	// cancellation while still queued).
	abort(reason string)
	reason(fallback string) string
	execute(s *Server)
}

// jobState is the lifecycle campaigns and sweeps share: the status
// machine (queued -> running -> done/failed/cancelled), cancellation,
// the SSE subscriber set and the run manifest. Each job kind embeds it
// and keeps its own progress and result fields under mu.
type jobState struct {
	// ctx is cancelled by DELETE, a waiting client's disconnect, or the
	// drain timeout; the sched engine aborts queued and in-flight pairs
	// through it.
	ctx    context.Context
	cancel context.CancelFunc

	mu           sync.Mutex
	status       string
	created      time.Time
	started      time.Time
	finished     time.Time
	errMsg       string
	cancelReason string
	subs         map[chan sseEvent]struct{}
	// manifest and manifestDigest hold the rendered JSONL run manifest
	// once the job has run (empty for jobs cancelled before start).
	manifest       []byte
	manifestDigest string

	// done is closed exactly once when the job reaches a terminal
	// status; SSE streams and ?wait=1 submitters block on it.
	done chan struct{}
}

func newJobState(ctx context.Context, cancel context.CancelFunc) jobState {
	return jobState{
		ctx: ctx, cancel: cancel,
		status: StatusQueued, created: time.Now(),
		subs: make(map[chan sseEvent]struct{}),
		done: make(chan struct{}),
	}
}

func (j *jobState) jobCtx() context.Context { return j.ctx }
func (j *jobState) abort(reason string)     { j.finish(StatusCancelled, reason, nil) }

func (j *jobState) terminal() bool {
	switch j.status {
	case StatusDone, StatusFailed, StatusCancelled:
		return true
	}
	return false
}

// finish moves the job to a terminal status once; later calls are
// no-ops (e.g. a DELETE racing the worker's own completion). commit,
// when non-nil, stores the job's result under the lock before done is
// closed, so a woken waiter always sees it.
func (j *jobState) finish(status, errMsg string, commit func()) {
	j.mu.Lock()
	if j.terminal() {
		j.mu.Unlock()
		return
	}
	j.status = status
	j.errMsg = errMsg
	j.finished = time.Now()
	if commit != nil {
		commit()
	}
	close(j.done)
	j.mu.Unlock()
	j.cancel() // release the context regardless of how we finished
}

// setRunning marks a dequeued job as started. It refuses a job that is
// already terminal — a cancel can finish a queued job after the worker
// took it off the queue — and the worker must then not run it.
func (j *jobState) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminal() {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	return true
}

// requestCancel records why the job is being cancelled and cancels its
// context. A queued job is finished immediately; a running one aborts
// through its engine and is finished by its worker.
func (j *jobState) requestCancel(reason string) {
	j.mu.Lock()
	if j.terminal() {
		j.mu.Unlock()
		return
	}
	if j.cancelReason == "" {
		j.cancelReason = reason
	}
	queued := j.status == StatusQueued
	j.mu.Unlock()
	j.cancel()
	if queued {
		j.finish(StatusCancelled, reason, nil)
	}
}

// reason returns the recorded cancel reason, or fallback if none.
func (j *jobState) reason(fallback string) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelReason != "" {
		return j.cancelReason
	}
	return fallback
}

// setManifest renders the job's run manifest. Callers do this before
// flipping the terminal status, so a client that observes "done" can
// always fetch the manifest whose digest the status reports.
func (j *jobState) setManifest(tr *obs.Trace) {
	manifest, err := tr.Manifest()
	if err != nil {
		return
	}
	j.mu.Lock()
	j.manifest = manifest
	j.manifestDigest = obs.ManifestDigest(manifest)
	j.mu.Unlock()
}

// serveManifest writes the job's JSONL run manifest, or 409 if the job
// has not run.
func (j *jobState) serveManifest(w http.ResponseWriter, kind, id string) {
	j.mu.Lock()
	manifest, digest := j.manifest, j.manifestDigest
	j.mu.Unlock()
	if len(manifest) == 0 {
		writeError(w, http.StatusConflict, "%s %s has not run yet", kind, id)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Manifest-Digest", digest)
	w.Write(manifest)
}

func (j *jobState) subscribe() chan sseEvent {
	ch := make(chan sseEvent, 64)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

func (j *jobState) unsubscribe(ch chan sseEvent) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// broadcast fans an event out to subscribers, dropping it for any
// subscriber whose buffer is full — terminal state is delivered via the
// done channel, so slow consumers only lose intermediate snapshots.
func (j *jobState) broadcast(ev sseEvent) {
	j.mu.Lock()
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

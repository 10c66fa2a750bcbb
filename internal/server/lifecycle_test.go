package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
)

// TestCancelBetweenDequeueAndStart replays the cancellation race in
// which a worker has taken a job off the queue and passed its context
// check, and the client's DELETE then finishes the still-queued job
// before the worker marks it running. The worker must leave the
// terminal job alone: overwriting the cancelled status with "running"
// let the job finish a second time and close its done channel twice.
// Both job kinds ride the same queue and share the lifecycle.
func TestCancelBetweenDequeueAndStart(t *testing.T) {
	release := make(chan struct{})
	busy := make(chan struct{}, 1)
	old := runCampaign
	runCampaign = func(pairs []profile.Pair, opt core.Options) ([]core.Characteristics, error) {
		if opt.Context.Err() == nil {
			busy <- struct{}{}
			<-release
		}
		return nil, opt.Context.Err()
	}
	defer func() { runCampaign = old }()

	s := New(Config{Workers: 1, Characterize: core.Options{Instructions: 12000}})
	defer s.Drain()
	defer close(release)
	h := s.Handler()
	do := func(method, path, body string) map[string]any {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code >= 300 {
			t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body.String())
		}
		var out map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return out
	}
	const spec = `{"suite":"cpu2017","mini":"rate-int","size":"test","instructions":12000`

	// Occupy the only worker so the next submissions stay queued.
	do(http.MethodPost, "/v1/campaigns", spec+"}")
	<-busy

	for _, tc := range []struct{ kind, body string }{
		{"campaigns", spec + "}"},
		{"sweeps", spec + `,"axes":[{"param":"l3.size","values":[1048576,2097152]}]}`},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			id := do(http.MethodPost, "/v1/"+tc.kind, tc.body)["id"].(string)
			j := <-s.queue // the worker's dequeue, past its context check
			do(http.MethodDelete, "/v1/"+tc.kind+"/"+id, "")
			j.execute(s)
			if st := do(http.MethodGet, "/v1/"+tc.kind+"/"+id, "")["status"]; st != StatusCancelled {
				t.Fatalf("status after cancel-then-execute = %v, want %s", st, StatusCancelled)
			}
		})
	}
}

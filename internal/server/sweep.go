// Sweep API: /v1/sweeps exposes the internal/sweep design-space
// exploration subsystem over the same job plumbing campaigns use — the
// shared bounded queue and worker pool, per-job cancellation, SSE
// progress, a run manifest per sweep, and tier-split cell accounting in
// /metrics. On a coordinator (Config.Fleet set) each grid point's
// campaign is scattered through the same consistent-hash dispatch as
// ordinary campaigns, with the point's machine configuration forwarded
// in the chunk specs, so a sharded sweep produces exactly the cells —
// and exactly the store records — a single-node sweep would.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sweep"
)

// SweepSpec is the client's description of one design-space sweep.
type SweepSpec struct {
	// Suite, Mini, Size and Pairs select the workloads exactly as the
	// corresponding CampaignSpec fields do.
	Suite string   `json:"suite"`
	Mini  string   `json:"mini,omitempty"`
	Size  string   `json:"size"`
	Pairs []string `json:"pairs,omitempty"`
	// Instructions and MultiplexSlots override the server's per-pair
	// window and multiplexing when positive, as in CampaignSpec.
	Instructions   uint64 `json:"instructions,omitempty"`
	MultiplexSlots int    `json:"multiplex_slots,omitempty"`
	// Machine overrides the base configuration the axes are applied to
	// (default: the server's base machine). Decoding validates it.
	Machine *machine.Config `json:"machine,omitempty"`
	// Axes are the swept dimensions (machine.AxisParams names the
	// parameters); the grid is their cartesian product.
	Axes []sweep.Axis `json:"axes"`
	// Screen is the fidelity tier every cell is first run at: "exact",
	// "sampled" or "analytic" (the default).
	Screen string `json:"screen,omitempty"`
	// Escalate is the tier Pareto-frontier points are re-run at:
	// "exact", "sampled" (the default), "analytic", or "off" to disable
	// escalation.
	Escalate string `json:"escalate,omitempty"`
	// Sampling sets the sampling knob used by whichever phase runs at
	// the sampled tier ("default" or "PERIOD/DETAIL/WARMUP"); empty
	// inherits the server's base options.
	Sampling string `json:"sampling,omitempty"`
	// Metrics are the swept metrics (sweep.MetricNames); empty means
	// ipc and l3_miss_pct.
	Metrics []string `json:"metrics,omitempty"`
	// SSEWeight biases the knee pick toward metric quality over
	// configuration cost (default 5, as in internal/subset).
	SSEWeight float64 `json:"sse_weight,omitempty"`
}

// SweepStatus is the JSON form of one sweep's state.
type SweepStatus struct {
	ID     string    `json:"id"`
	Spec   SweepSpec `json:"spec"`
	Status string    `json:"status"`
	// Pairs and Points size the grid: Pairs x Points is the screen-phase
	// cell count.
	Pairs    int            `json:"pairs"`
	Points   int            `json:"points"`
	Created  time.Time      `json:"created"`
	Started  *time.Time     `json:"started,omitempty"`
	Finished *time.Time     `json:"finished,omitempty"`
	Progress sweep.Progress `json:"progress"`
	Error    string         `json:"error,omitempty"`
	// Result is the grid, frontier and knee reports, present once done.
	Result *sweep.Result `json:"result,omitempty"`
	// ManifestDigest ties the sweep to its JSONL run manifest
	// (GET /v1/sweeps/{id}/manifest), set once the sweep ran.
	ManifestDigest string `json:"manifest_digest,omitempty"`
}

// sweepJob is the server-side state of one submitted sweep.
type sweepJob struct {
	id     string
	spec   SweepSpec
	sspec  sweep.Spec // resolved engine spec
	points int

	jobState
	// progress and result are guarded by jobState.mu.
	progress sweep.Progress
	result   *sweep.Result
}

// --- job interface (the lifecycle half lives on jobState) -------------

func (j *sweepJob) execute(s *Server) { s.runSweep(j) }

func (j *sweepJob) snapshot(includeResult bool) SweepStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := SweepStatus{
		ID: j.id, Spec: j.spec, Status: j.status,
		Pairs: len(j.sspec.Pairs), Points: j.points,
		Created: j.created, Progress: j.progress, Error: j.errMsg,
	}
	if st.Progress.CellsTotal == 0 {
		st.Progress.CellsTotal = j.points * len(j.sspec.Pairs)
	}
	if st.Progress.PointsTotal == 0 {
		st.Progress.PointsTotal = j.points
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if includeResult && j.status == StatusDone {
		st.Result = j.result
	}
	st.ManifestDigest = j.manifestDigest
	return st
}

func (j *sweepJob) setProgress(p sweep.Progress) {
	j.mu.Lock()
	j.progress = p
	j.mu.Unlock()
	data, _ := json.Marshal(p)
	j.broadcast(sseEvent{name: "progress", data: data})
}

// --- Submission -------------------------------------------------------

// resolveSweep turns the wire spec into the engine spec, rejecting
// anything the sweep cannot honor (the submit-time 400 path).
func (s *Server) resolveSweep(spec *SweepSpec) (sweep.Spec, int, error) {
	cspec := CampaignSpec{Suite: spec.Suite, Mini: spec.Mini, Size: spec.Size, Pairs: spec.Pairs}
	pairs, err := cspec.resolve()
	if err != nil {
		return sweep.Spec{}, 0, err
	}

	screen := machine.FidelityAnalytic
	if spec.Screen != "" {
		if screen, err = machine.ParseFidelity(spec.Screen); err != nil {
			return sweep.Spec{}, 0, err
		}
	}
	escalate, escalateOff := machine.FidelitySampled, false
	switch strings.ToLower(spec.Escalate) {
	case "":
	case "off", "none":
		escalateOff = true
	default:
		if escalate, err = machine.ParseFidelity(spec.Escalate); err != nil {
			return sweep.Spec{}, 0, err
		}
	}
	if _, err := machine.ParseSampling(spec.Sampling); err != nil {
		return sweep.Spec{}, 0, err
	}

	base := s.cfg.Characterize.Machine
	if spec.Machine != nil {
		base = *spec.Machine
	}
	if base.ClockHz == 0 {
		base = machine.HaswellScaled()
	}
	// Expand once now: a bad axis parameter, an invalid grid point or an
	// oversized grid rejects the submission instead of failing the job.
	points, err := sweep.Expand(base, spec.Axes)
	if err != nil {
		return sweep.Spec{}, 0, err
	}

	sspec := sweep.Spec{
		Base: base, Axes: spec.Axes, Pairs: pairs,
		Screen: screen, Escalate: escalate, EscalateOff: escalateOff,
		Metrics: spec.Metrics, SSEWeight: spec.SSEWeight,
	}
	if err := sspec.Validate(); err != nil {
		return sweep.Spec{}, 0, err
	}
	return sspec, len(points), nil
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad sweep spec: %v", err)
		return
	}
	sspec, points, err := s.resolveSweep(&spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad sweep spec: %v", err)
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &sweepJob{
		spec: spec, sspec: sspec, points: points,
		jobState: newJobState(ctx, cancel),
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.nextSweepID++
	j.id = fmt.Sprintf("s%06d", s.nextSweepID)
	select {
	case s.queue <- j:
		s.sweeps[j.id] = j
		s.sweepOrder = append(s.sweepOrder, j.id)
	default:
		s.nextSweepID--
		s.mu.Unlock()
		cancel()
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"campaign queue is full (%d queued); retry later", s.cfg.QueueDepth)
		return
	}
	s.mu.Unlock()

	if wait := r.URL.Query().Get("wait"); wait == "1" || strings.EqualFold(wait, "true") {
		select {
		case <-j.done:
			writeJSON(w, http.StatusOK, j.snapshot(true))
		case <-r.Context().Done():
			j.requestCancel("client disconnected")
		}
		return
	}
	w.Header().Set("Location", "/v1/sweeps/"+j.id)
	writeJSON(w, http.StatusAccepted, j.snapshot(false))
}

// --- Execution --------------------------------------------------------

func (s *Server) runSweep(j *sweepJob) {
	if !j.setRunning() {
		return
	}
	opt := s.cfg.Characterize
	if j.spec.Instructions > 0 {
		opt.Instructions = j.spec.Instructions
	}
	if j.spec.MultiplexSlots > 0 {
		opt.MultiplexSlots = j.spec.MultiplexSlots
	}
	if j.spec.Sampling != "" {
		// Parse errors were rejected at submit time.
		opt.Sampling, _ = machine.ParseSampling(j.spec.Sampling)
	}
	tr := obs.NewTrace()
	opt.Trace = tr

	// On a coordinator every grid point scatters through the fleet
	// dispatch; each point's sub-campaigns get their own id namespace so
	// chunk names stay unique across the sweep.
	var runner sweep.Runner
	if len(s.cfg.Fleet) > 0 {
		var n atomic.Int64
		suite, size := j.spec.Suite, j.spec.Size
		runner = func(ctx context.Context, pairs []profile.Pair, o core.Options) ([]core.Characteristics, error) {
			id := fmt.Sprintf("%s/g%d", j.id, n.Add(1))
			return s.runFleet(ctx, id, CampaignSpec{Suite: suite, Size: size}, pairs, o)
		}
	}

	res, err := sweep.Run(j.ctx, j.sspec, sweep.Options{
		Base:     opt,
		Run:      runner,
		Progress: j.setProgress,
	})

	j.setManifest(tr)

	// Account cells by phase and satisfying source — from the final
	// progress snapshot, so partially-run (failed/cancelled) sweeps
	// still report the cells they completed.
	j.mu.Lock()
	p := j.progress
	j.mu.Unlock()
	s.sweepScreenCells.add(p.Screen)
	s.sweepEscalateCells.add(p.Escalate)
	addMetSweepCells("screen", p.Screen)
	addMetSweepCells("escalate", p.Escalate)

	switch {
	case err == nil:
		j.finish(StatusDone, "", func() { j.result = res })
	case j.ctx.Err() != nil || errors.Is(err, context.Canceled):
		j.finish(StatusCancelled, j.reason("cancelled"), nil)
	default:
		j.finish(StatusFailed, err.Error(), nil)
	}
}

// --- Read handlers ----------------------------------------------------

func (s *Server) lookupSweep(r *http.Request) (*sweepJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.sweeps[r.PathValue("id")]
	return j, ok
}

func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupSweep(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no sweep %q", r.PathValue("id"))
		return
	}
	includeResult := r.URL.Query().Get("results") != "0"
	writeJSON(w, http.StatusOK, j.snapshot(includeResult))
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*sweepJob, 0, len(s.sweepOrder))
	for _, id := range s.sweepOrder {
		jobs = append(jobs, s.sweeps[id])
	}
	s.mu.Unlock()
	out := make([]SweepStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot(false)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSweepDelete(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupSweep(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no sweep %q", r.PathValue("id"))
		return
	}
	j.requestCancel("cancelled by client")
	writeJSON(w, http.StatusAccepted, j.snapshot(false))
}

func (s *Server) handleSweepManifest(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupSweep(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no sweep %q", r.PathValue("id"))
		return
	}
	j.serveManifest(w, "sweep", j.id)
}

func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupSweep(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no sweep %q", r.PathValue("id"))
		return
	}
	serveSSE(w, r, j.subscribe, j.unsubscribe, j.done,
		func() []byte { return mustJSON(j.snapshot(false)) })
}

// --- Metrics ----------------------------------------------------------

// cellCounters is a sweep-cell counter quartet (per phase).
type cellCounters struct {
	simulated, memory, store, remote atomic.Uint64
}

func (c *cellCounters) add(n sweep.CellCounts) {
	c.simulated.Add(uint64(n.Simulated))
	c.memory.Add(uint64(n.Memory))
	c.store.Add(uint64(n.Store))
	c.remote.Add(uint64(n.Remote))
}

// metSweepCells counts sweep cells by phase (screen vs escalate) and
// satisfying source — the Prometheus twin of the per-server quartets in
// the expvar map. A warmed-up deployment shows the differential win
// directly: source="simulated" stays flat while store/memory grow.
var metSweepCells = func() map[string]*obs.Counter {
	m := make(map[string]*obs.Counter)
	help := "Sweep cells by phase and satisfying source."
	for _, phase := range []string{"screen", "escalate"} {
		for _, src := range []string{"simulated", "memory", "store", "remote"} {
			m[phase+"/"+src] = obs.Default().Counter("speckit_sweep_cells_total", help,
				"phase", phase, "source", src)
			help = ""
		}
	}
	return m
}()

func addMetSweepCells(phase string, n sweep.CellCounts) {
	metSweepCells[phase+"/simulated"].Add(uint64(n.Simulated))
	metSweepCells[phase+"/memory"].Add(uint64(n.Memory))
	metSweepCells[phase+"/store"].Add(uint64(n.Store))
	metSweepCells[phase+"/remote"].Add(uint64(n.Remote))
}

// sweepSnapshot is the "sweeps" block of the expvar metrics map.
func (s *Server) sweepSnapshot() map[string]any {
	s.mu.Lock()
	states := map[string]int{}
	for _, j := range s.sweeps {
		j.mu.Lock()
		states[j.status]++
		j.mu.Unlock()
	}
	s.mu.Unlock()
	return map[string]any{
		"states": states,
		"cells": map[string]uint64{
			"screen_simulated":   s.sweepScreenCells.simulated.Load(),
			"screen_memory":      s.sweepScreenCells.memory.Load(),
			"screen_store":       s.sweepScreenCells.store.Load(),
			"screen_remote":      s.sweepScreenCells.remote.Load(),
			"escalate_simulated": s.sweepEscalateCells.simulated.Load(),
			"escalate_memory":    s.sweepEscalateCells.memory.Load(),
			"escalate_store":     s.sweepEscalateCells.store.Load(),
			"escalate_remote":    s.sweepEscalateCells.remote.Load(),
		},
	}
}

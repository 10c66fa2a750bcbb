package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// record is one run's entry in the records file: the key the issue's
// trajectory is indexed by, the result and the digests behind the
// repeatability checks.
type record struct {
	Time      time.Time         `json:"time"`
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	CPU       string            `json:"cpu"`
	NumCPU    int               `json:"nproc"`
	GoVersion string            `json:"go"`
	Commit    string            `json:"commit"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples are the per-measurement values behind each median and
	// Latencies each serve phase's request latencies in s, in the order
	// taken and in host time; Probes are the host-speed probe's times in
	// ms.
	Samples   map[string][]float64 `json:"samples,omitempty"`
	Latencies map[string][]float64 `json:"latencies,omitempty"`
	Probes    []float64            `json:"probes,omitempty"`
	Facts     map[string]any       `json:"facts"`
}

// repeatFacts must read the same in every run of one commit and seed.
var repeatFacts = []string{"campaign.exact_digest", "sweep.knee_digest"}

// writeRecord checks the run's digests against earlier records of the
// same commit, workload and seed, then appends the run's record.
func writeRecord(r *run, root string) error {
	path := filepath.Join(r.dir, "records.jsonl")
	rec := record{
		Time: time.Now().UTC(), Workload: r.workload, Seed: r.seed, Trace: r.trace,
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: commit(root), Metrics: r.metrics, Samples: r.samples, Latencies: r.lat, Probes: r.probes, Facts: r.facts,
	}
	if f, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<24)
		for sc.Scan() {
			var old record
			if json.Unmarshal(sc.Bytes(), &old) != nil ||
				old.Commit != rec.Commit || old.Workload != rec.Workload || old.Seed != rec.Seed {
				continue
			}
			for _, k := range repeatFacts {
				prev, ok := old.Facts[k]
				if cur, ok2 := r.facts[k]; ok && ok2 {
					r.check(prev == cur, "%s differs from the run recorded at %s: %v then %v", k, old.Time.Format(time.RFC3339), prev, cur)
				}
			}
		}
		f.Close()
	}
	rec.Correct, rec.Attempted, rec.Failed = r.failed == 0, r.attempted, r.failed
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the code under test: a digest of the Go sources and
// module files, prefixed with the git HEAD when root is a checkout whose
// .git names it in a loose ref. The digest keeps uncommitted edits from
// sharing a key with the commit they started from.
func commit(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			if data, err := os.ReadFile(path); err == nil {
				rel, _ := filepath.Rel(root, path)
				h.Write([]byte(rel + "\x00"))
				h.Write(data)
			}
		}
		return nil
	})
	src := "src-" + hex.EncodeToString(h.Sum(nil))[:16]
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, isRef := strings.CutPrefix(ref, "ref: "); isRef {
			id, err := os.ReadFile(filepath.Join(root, ".git", name))
			if err != nil {
				return src
			}
			ref = strings.TrimSpace(string(id))
		}
		return ref + "/" + src
	}
	return src
}

package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// API is the minimal HTTP surface over the scenario engine:
//
//	GET  /scenarios   list the registered library scenarios
//	POST /runs        start a run ({"name":"wan"} or {"spec":{...}},
//	                  optional "seed" override); returns the run id
//	GET  /runs        list runs and their states
//	GET  /runs/<id>   one run: state, and the full report when done
//
// Runs execute asynchronously; poll the run until state is "done".
type API struct {
	mu   sync.Mutex
	seq  int // runs are "run-1" .. "run-<seq>", in creation order
	runs map[string]*apiRun
}

// apiRun is one tracked execution.
type apiRun struct {
	ID       string  `json:"id"`
	Scenario string  `json:"scenario"`
	State    string  `json:"state"` // "running" | "done" | "error"
	Error    string  `json:"error,omitempty"`
	Report   *Report `json:"report,omitempty"`
}

// NewAPI returns an empty run tracker.
func NewAPI() *API {
	return &API{runs: map[string]*apiRun{}}
}

// Handler returns the API's routes; any other method on them is a 405.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /scenarios", a.handleScenarios)
	mux.HandleFunc("GET /runs", a.handleList)
	mux.HandleFunc("POST /runs", a.handleLaunch)
	mux.HandleFunc("GET /runs/{id}", a.handleRun)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func (a *API) handleScenarios(w http.ResponseWriter, r *http.Request) {
	type item struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	var out []item
	for _, n := range Names() {
		out = append(out, item{Name: n, Description: library[n].Description})
	}
	writeJSON(w, http.StatusOK, out)
}

// launchRequest is the POST /runs body.
type launchRequest struct {
	Name string          `json:"name,omitempty"` // library scenario
	Spec json.RawMessage `json:"spec,omitempty"` // or an inline spec
	Seed *int64          `json:"seed,omitempty"` // optional seed override
}

func (a *API) handleList(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	out := make([]*apiRun, 0, a.seq)
	for i := 1; i <= a.seq; i++ {
		run := *a.runs[fmt.Sprintf("run-%d", i)]
		run.Report = nil // list view stays small; fetch /runs/<id> for the report
		out = append(out, &run)
	}
	a.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (a *API) handleLaunch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req launchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	var spec *Spec
	switch {
	case req.Name != "" && req.Spec != nil:
		http.Error(w, "give name or spec, not both", http.StatusBadRequest)
		return
	case req.Name != "":
		spec, err = Lookup(req.Name)
	case req.Spec != nil:
		spec, err = ParseSpec(req.Spec)
	default:
		http.Error(w, "need name or spec", http.StatusBadRequest)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Seed != nil {
		spec.Seed = *req.Seed
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": a.launch(spec)})
}

// launch starts an asynchronous run and returns its id.
func (a *API) launch(spec *Spec) string {
	a.mu.Lock()
	a.seq++
	id := fmt.Sprintf("run-%d", a.seq)
	run := &apiRun{ID: id, Scenario: spec.Name, State: "running"}
	a.runs[id] = run
	a.mu.Unlock()
	go func() {
		rep, err := Run(spec, RunOptions{Metrics: true})
		a.mu.Lock()
		defer a.mu.Unlock()
		if err != nil {
			run.State, run.Error = "error", err.Error()
			return
		}
		run.State, run.Report = "done", rep
	}()
	return id
}

func (a *API) handleRun(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	run, ok := a.runs[r.PathValue("id")]
	var cp apiRun
	if ok {
		cp = *run
	}
	a.mu.Unlock()
	if !ok {
		http.Error(w, "unknown run", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, &cp)
}

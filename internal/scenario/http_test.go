package scenario

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestAPIScenarios: the library is listed with descriptions.
func TestAPIScenarios(t *testing.T) {
	srv := httptest.NewServer(NewAPI().Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []struct{ Name, Description string }
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) < 5 {
		t.Fatalf("listed %d scenarios, want >= 5", len(list))
	}
	for _, s := range list {
		if s.Name == "" || s.Description == "" {
			t.Fatalf("incomplete listing entry: %+v", s)
		}
	}
}

// TestAPIRunLifecycle: POST an inline spec, poll the run to completion,
// and fetch the report.
func TestAPIRunLifecycle(t *testing.T) {
	srv := httptest.NewServer(NewAPI().Handler())
	defer srv.Close()

	body := `{"spec": {
	  "name": "api-quick",
	  "seed": 3,
	  "duration": "30s",
	  "workload": {"kind": "rpc", "conns": 2, "calls": 10, "msg_bytes": 64},
	  "assert": {"intact": true, "all_complete": true}
	}}`
	resp, err := http.Post(srv.URL+"/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /runs: %d", resp.StatusCode)
	}
	var launched struct{ ID string }
	json.NewDecoder(resp.Body).Decode(&launched)
	resp.Body.Close()
	if launched.ID == "" {
		t.Fatal("no run id")
	}

	deadline := time.Now().Add(30 * time.Second)
	var run struct {
		State  string
		Error  string
		Report *Report
	}
	for time.Now().Before(deadline) {
		r, err := http.Get(srv.URL + "/runs/" + launched.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&run); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if run.State != "running" {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if run.State != "done" {
		t.Fatalf("run state %q (err %q)", run.State, run.Error)
	}
	if run.Report == nil || !run.Report.Pass {
		t.Fatalf("report: %+v", run.Report)
	}
	if len(run.Report.Metrics) == 0 {
		t.Fatal("API runs should include telemetry metrics")
	}

	// The list view tracks the run without shipping the full report.
	r, err := http.Get(srv.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	var list []struct {
		ID, Scenario, State string
		Report              *Report
	}
	json.NewDecoder(r.Body).Decode(&list)
	r.Body.Close()
	if len(list) != 1 || list[0].ID != launched.ID || list[0].State != "done" || list[0].Report != nil {
		t.Fatalf("list view: %+v", list)
	}
}

// TestAPIRejections: bad launches come back 4xx, unknown runs 404.
func TestAPIRejections(t *testing.T) {
	srv := httptest.NewServer(NewAPI().Handler())
	defer srv.Close()
	for _, body := range []string{
		`{"name": "no-such-scenario"}`,
		`{}`,
		`{"name": "wan", "spec": {"name":"x"}}`,
		`{"spec": {"name":"x","workload":{"kind":"warp"}}}`,
		`not json`,
	} {
		resp, err := http.Post(srv.URL+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	// The routes take one method each; any other is refused.
	resp, err := http.Post(srv.URL+"/scenarios", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /scenarios: %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/runs/run-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: %d, want 404", resp.StatusCode)
	}
}

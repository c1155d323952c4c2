package server_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"tunio"
	"tunio/internal/server"
)

// onlineJob is a small drift-aware flash job: the machine degrades at
// t=25, so the controller must re-tune mid-run.
func onlineJob(seed int64) server.JobRequest {
	return server.JobRequest{
		Workload:     "flash",
		Nodes:        2,
		ProcsPerNode: 8,
		Reps:         1,
		Seed:         seed,
		Parallelism:  2,
		Drift: &tunio.Drift{Seed: 9, Regimes: []tunio.Regime{
			{Start: 25, OSTLoad: 0.5, NICLoad: 0.3, Contention: 3},
		}},
		Online: &server.OnlineRequest{
			Windows: 10, WindowGap: 10,
			Neighbors: 4, Rounds: 2, InitRounds: 3,
			Prune: true, Oracle: true,
		},
	}
}

// An online job streams "window" and "retune" SSE events and lands a
// result carrying the full drift payload.
func TestServerOnlineJobStreamsWindowsAndRetunes(t *testing.T) {
	ts := newTestServer(t, tunio.EngineOptions{})
	st, resp := submit(t, ts, onlineJob(5), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}

	sresp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	events := readSSE(t, sresp.Body)
	if len(events) == 0 || events[len(events)-1].event != "done" {
		t.Fatalf("stream did not terminate in done: %+v", events)
	}

	var windows []tunio.WindowPoint
	var retunes []tunio.RetuneEvent
	for _, ev := range events[:len(events)-1] {
		switch ev.event {
		case "window":
			var w tunio.WindowPoint
			if err := json.Unmarshal([]byte(ev.data), &w); err != nil {
				t.Fatal(err)
			}
			windows = append(windows, w)
		case "retune":
			var r tunio.RetuneEvent
			if err := json.Unmarshal([]byte(ev.data), &r); err != nil {
				t.Fatal(err)
			}
			retunes = append(retunes, r)
		default:
			t.Fatalf("unexpected event %q mid-stream", ev.event)
		}
	}
	if len(windows) != 10 {
		t.Fatalf("streamed %d windows, want 10", len(windows))
	}
	for i, w := range windows {
		if w.Window != i {
			t.Fatalf("window events out of order: got %d at position %d", w.Window, i)
		}
	}
	if len(retunes) == 0 {
		t.Fatal("no retune event through a regime change")
	}
	if retunes[0].Reason == "" || retunes[0].Mode != "local" {
		t.Fatalf("malformed retune event %+v", retunes[0])
	}

	var final server.JobStatus
	if err := json.Unmarshal([]byte(events[len(events)-1].data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.Result == nil || final.Result.Drift == nil {
		t.Fatalf("done event lacks drift payload: %+v", final)
	}
	d := final.Result.Drift
	if len(d.Windows) != 10 || len(d.Retunes) != len(retunes) {
		t.Fatalf("drift payload has %d windows / %d retunes, streamed 10 / %d",
			len(d.Windows), len(d.Retunes), len(retunes))
	}
	if d.Windows[len(d.Windows)-1].OraclePerfMBs <= 0 {
		t.Fatal("oracle tracking requested but missing from windows")
	}
	if d.EvalSimSeconds <= 0 || d.Evaluations == 0 {
		t.Fatalf("adaptation cost accounting missing: %+v", d)
	}
}

// Unknown online fields are rejected like any other unknown field.
func TestServerOnlineUnknownField(t *testing.T) {
	ts := newTestServer(t, tunio.EngineOptions{})
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"flash","online":{"winows":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("typo'd online field = %d, want 400", resp.StatusCode)
	}
}

// Pruning over averaged reps is a bad spec like any other: 400 at submit,
// no job row, nothing started — not a 202 and a job that fails once its
// kernel has been recorded.
func TestServerOnlinePruneOverRepsIsBadRequest(t *testing.T) {
	ts := newTestServer(t, tunio.EngineOptions{})
	req := onlineJob(5)
	req.Reps = 3
	if _, resp := submit(t, ts, req, ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("submit = %d, want 400", resp.StatusCode)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("a refused submission left job rows behind: %+v", jobs)
	}
}

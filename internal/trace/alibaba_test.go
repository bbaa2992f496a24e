package trace

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// sortedAlibabaCSV builds a deterministic Alibaba-style CSV whose data rows
// are sorted by start time, with jobs interleaved (a job's tasks are spread
// across the file) and a sprinkling of filtered and malformed rows. It also
// returns the same data rows in a shuffled order under the same header.
func sortedAlibabaCSV(t *testing.T, seed int64, jobs, rowsPerJob int) (sorted, shuffled string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	type row struct {
		job, task string
		start     float64
		dur       float64
		status    string
		gpu       int
	}
	var rows []row
	for j := 0; j < jobs; j++ {
		base := rng.Float64() * 100000
		for i := 0; i < rowsPerJob; i++ {
			status := "Terminated"
			if rng.Float64() < 0.15 {
				status = "Failed" // dropped by the importer
			}
			rows = append(rows, row{
				job:    fmt.Sprintf("job-%03d", j),
				task:   fmt.Sprintf("t%d", i),
				start:  base + rng.Float64()*5000,
				dur:    60 + rng.Float64()*4000,
				status: status,
				gpu:    100 * (1 + rng.Intn(4)),
			})
		}
	}
	// Sort every data row by start time, the order archived cluster dumps
	// come in.
	for i := 1; i < len(rows); i++ {
		for k := i; k > 0 && rows[k].start < rows[k-1].start; k-- {
			rows[k], rows[k-1] = rows[k-1], rows[k]
		}
	}
	var lines []string
	for i, r := range rows {
		lines = append(lines, fmt.Sprintf("%s,%s,1,%s,%.3f,%.3f,%d\n", r.job, r.task, r.status, r.start, r.start+r.dur, r.gpu))
		if i%17 == 0 {
			lines = append(lines, "malformed,row\n") // short row: skipped
		}
	}
	const header = "job_name,task_name,inst_num,status,start_time,end_time,plan_gpu\n"
	sorted = header + strings.Join(lines, "")
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return sorted, header + strings.Join(lines, "")
}

// Row order must not matter: the import groups every job before it sorts
// apps by (submit, ID), so a sorted log and a shuffle of the same rows give
// the same trace at every cap.
func TestAlibabaSortedCrossCheck(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		sorted, shuffled := sortedAlibabaCSV(t, seed, 30, 6)
		for _, maxApps := range []int{0, 1, 3, 10, 29, 30, 100} {
			t.Run(fmt.Sprintf("seed%d-cap%d", seed, maxApps), func(t *testing.T) {
				want, err := ImportAlibaba(strings.NewReader(sorted), ImportOptions{MaxApps: maxApps})
				if err != nil {
					t.Fatalf("sorted rows: %v", err)
				}
				got, err := ImportAlibaba(strings.NewReader(shuffled), ImportOptions{MaxApps: maxApps})
				if err != nil {
					t.Fatalf("shuffled rows: %v", err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("row order changed the import at cap %d:\nsorted:   %+v\nshuffled: %+v", maxApps, want, got)
				}
			})
		}
	}
}

// Tied submission times: jobs that arrive together are kept by ID order
// under a cap, a kept job keeps every one of its task rows, and later task
// rows of a dropped job never bring it back.
func TestAlibabaSortedTies(t *testing.T) {
	csv := "job_name,task_name,inst_num,status,start_time,end_time,plan_gpu\n" +
		"zeta,t0,1,Terminated,100,700,100\n" +
		"beta,t0,1,Terminated,100,800,100\n" +
		"alpha,t0,1,Terminated,100,900,100\n" +
		"gamma,t0,1,Terminated,100,950,100\n" +
		"zeta,t1,1,Terminated,160,750,100\n" + // later row of a job dropped at caps 1-3
		"gamma,t1,1,Terminated,200,900,100\n" + // later row of a job dropped at caps 1-2
		"alpha,t1,1,Terminated,260,980,100\n" // later row of the job every cap keeps
	full, err := ImportAlibaba(strings.NewReader(csv), ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		maxApps int
		ids     []string
		jobs    []int
	}{
		{1, []string{"alpha"}, []int{2}},
		{2, []string{"alpha", "beta"}, []int{2, 1}},
		{3, []string{"alpha", "beta", "gamma"}, []int{2, 1, 2}},
		{0, []string{"alpha", "beta", "gamma", "zeta"}, []int{2, 1, 2, 2}},
	} {
		tr, err := ImportAlibaba(strings.NewReader(csv), ImportOptions{MaxApps: tc.maxApps})
		if err != nil {
			t.Fatalf("cap %d: %v", tc.maxApps, err)
		}
		if len(tr.Apps) != len(tc.ids) {
			t.Fatalf("cap %d kept %d apps, want %v", tc.maxApps, len(tr.Apps), tc.ids)
		}
		for i, app := range tr.Apps {
			if app.ID != tc.ids[i] || len(app.Jobs) != tc.jobs[i] || app.SubmitTime != 0 {
				t.Errorf("cap %d app %d = %s with %d jobs at %v, want %s with %d jobs at 0",
					tc.maxApps, i, app.ID, len(app.Jobs), app.SubmitTime, tc.ids[i], tc.jobs[i])
			}
			if !reflect.DeepEqual(app, full.Apps[i]) {
				t.Errorf("cap %d app %s differs from the uncapped import's:\ncapped:   %+v\nuncapped: %+v", tc.maxApps, app.ID, app, full.Apps[i])
			}
		}
	}
	// alpha's tasks in start order: 800 s then 720 s of one GPU.
	alpha := full.Apps[0]
	if w0, w1 := alpha.Jobs[0].TotalWork, alpha.Jobs[1].TotalWork; math.Abs(w0-800.0/60) > 1e-9 || math.Abs(w1-720.0/60) > 1e-9 {
		t.Errorf("alpha job work = %v, %v, want %v, %v", w0, w1, 800.0/60, 720.0/60)
	}
}

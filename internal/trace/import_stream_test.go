package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// failingReader yields its payload and then fails with err instead of EOF —
// the shape of a network stream or pipe dying mid-transfer.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// Regression: Import used to drop the Peek error during format sniffing, so
// a reader failing mid-sniff surfaced as a bogus "cannot detect trace
// format" misdetection instead of the I/O error.
func TestImportSurfacesSniffError(t *testing.T) {
	ioErr := errors.New("connection reset mid-transfer")
	cases := []struct {
		name string
		r    io.Reader
	}{
		{"fails immediately", &failingReader{err: ioErr}},
		{"fails after partial header", &failingReader{data: []byte("jobid,sub"), err: ioErr}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Import(c.r, FormatAuto, ImportOptions{})
			if !errors.Is(err, ioErr) {
				t.Fatalf("Import error = %v, want the underlying I/O error %v", err, ioErr)
			}
			if strings.Contains(fmt.Sprint(err), "cannot detect") {
				t.Fatalf("I/O failure misreported as format misdetection: %v", err)
			}
		})
	}
	// A short-but-healthy input (EOF inside the sniff window) must still
	// import: EOF is how every small file looks to Peek.
	tr, err := Import(strings.NewReader(phillyCSV), FormatAuto, ImportOptions{})
	if err != nil || len(tr.Apps) == 0 {
		t.Fatalf("short valid input failed auto import: %v", err)
	}
}

func TestImportOptionsValidate(t *testing.T) {
	cases := []struct {
		name   string
		opts   ImportOptions
		option string // expected OptionError.Option; "" means valid
	}{
		{"zero value", ImportOptions{}, ""},
		{"conventional scale", ImportOptions{TimeScale: 2.5, MaxApps: 10}, ""},
		{"negative TimeScale", ImportOptions{TimeScale: -1}, "TimeScale"},
		{"NaN TimeScale", ImportOptions{TimeScale: math.NaN()}, "TimeScale"},
		{"+Inf TimeScale", ImportOptions{TimeScale: math.Inf(1)}, "TimeScale"},
		{"-Inf TimeScale", ImportOptions{TimeScale: math.Inf(-1)}, "TimeScale"},
		{"negative MaxApps", ImportOptions{MaxApps: -5}, "MaxApps"},
		{"negative ProgressEvery", ImportOptions{ProgressEvery: -1}, "ProgressEvery"},
		{"negative placement constraint", ImportOptions{Placement: &PlacementSpec{MinGPUsPerMachine: -1}}, "Placement"},
		{"unknown placement profile", ImportOptions{Placement: &PlacementSpec{Profile: "NoSuchNet"}}, "Placement"},
		{"valid placement", ImportOptions{Placement: &PlacementSpec{Profile: "VGG16", MaxMachines: 1}}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.opts.Validate()
			if c.option == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			var optErr *OptionError
			if !errors.As(err, &optErr) {
				t.Fatalf("Validate() = %v (%T), want OptionError", err, err)
			}
			if optErr.Option != c.option {
				t.Fatalf("OptionError.Option = %q, want %q", optErr.Option, c.option)
			}
			// Every import entry point must apply the same gate before
			// touching the stream.
			if _, err := Import(strings.NewReader(phillyCSV), FormatAuto, c.opts); !errors.As(err, &optErr) {
				t.Errorf("Import did not reject: %v", err)
			}
			if _, err := ImportPhilly(strings.NewReader(phillyCSV), c.opts); !errors.As(err, &optErr) {
				t.Errorf("ImportPhilly did not reject: %v", err)
			}
			if _, err := ImportAlibaba(strings.NewReader(alibabaCSV), c.opts); !errors.As(err, &optErr) {
				t.Errorf("ImportAlibaba did not reject: %v", err)
			}
		})
	}
}

// The importer contract must hold uniformly on native JSON input too: Name,
// Model and Placement stamp the decoded apps, MaxApps keeps the earliest by
// submit time without rebasing, and the Progress callback gets its final
// Done snapshot. (Regression: these options used to be silently ignored on
// the JSON branch.)
func TestImportJSONHonoursOptions(t *testing.T) {
	src := `{"version":2,"name":"orig","apps":[
		{"id":"late","submit_time":50,"model":"ResNet50","jobs":[{"total_work":10,"gang_size":1}]},
		{"id":"early","submit_time":10,"model":"ResNet50","jobs":[{"total_work":10,"gang_size":1}]},
		{"id":"mid","submit_time":20,"model":"ResNet50","jobs":[{"total_work":10,"gang_size":1}]}]}`
	var snaps []ImportProgress
	tr, err := Import(strings.NewReader(src), FormatAuto, ImportOptions{
		Name:      "renamed",
		Model:     "VGG16",
		MaxApps:   2,
		Placement: &PlacementSpec{MaxMachines: 1},
		Progress:  func(p ImportProgress) { snaps = append(snaps, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "renamed" {
		t.Errorf("Name not applied: %q", tr.Name)
	}
	if len(tr.Apps) != 2 || tr.Apps[0].ID != "early" || tr.Apps[1].ID != "mid" {
		t.Fatalf("MaxApps kept %+v, want the 2 earliest (early, mid)", tr.Apps)
	}
	// Native traces own their time base: no rebase to t = 0.
	if tr.Apps[0].SubmitTime != 10 || tr.Apps[1].SubmitTime != 20 {
		t.Errorf("JSON import rebased submit times: %+v", tr.Apps)
	}
	for i, spec := range tr.Apps {
		if spec.Model != "VGG16" {
			t.Errorf("app %d model not stamped: %q", i, spec.Model)
		}
		if spec.Placement == nil || spec.Placement.MaxMachines != 1 {
			t.Errorf("app %d placement not stamped: %+v", i, spec.Placement)
		}
	}
	if len(snaps) != 1 || !snaps[0].Done || snaps[0].Kept != 2 || snaps[0].Bytes == 0 {
		t.Errorf("progress snapshots: %+v, want one final Done with Kept=2 and bytes counted", snaps)
	}
	// With no options set the decode is untouched.
	plain, err := Import(strings.NewReader(src), FormatJSON, ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Name != "orig" || len(plain.Apps) != 3 || plain.Apps[0].ID != "late" {
		t.Errorf("optionless JSON import altered the trace: %+v", plain)
	}
}

// syntheticPhilly emits a deterministic Philly-style CSV of n rows with
// shuffled submit times, so top-K selection has real work to do.
func syntheticPhilly(n int) string {
	var b strings.Builder
	b.WriteString("jobid,submit_time,gpus,duration,status\n")
	for i := 0; i < n; i++ {
		// A coprime stride walks every residue: submit order != row order.
		submit := (i * 7919) % n
		fmt.Fprintf(&b, "j-%04d,%d,%d,%d,Pass\n", i, submit, 1+i%4, 30+i%60)
	}
	return b.String()
}

// The online top-K selection must keep exactly the apps the old
// materialise-then-sort pass kept: the K earliest by (submit time, ID).
func TestTopKMatchesFullSort(t *testing.T) {
	const n = 500
	csv := syntheticPhilly(n)
	full, err := ImportPhilly(strings.NewReader(csv), ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 7, 100, n, n + 50} {
		capped, err := ImportPhilly(strings.NewReader(csv), ImportOptions{MaxApps: k})
		if err != nil {
			t.Fatalf("MaxApps=%d: %v", k, err)
		}
		want := full.Apps
		if k < len(want) {
			want = want[:k]
		}
		if !reflect.DeepEqual(capped.Apps, want) {
			t.Fatalf("MaxApps=%d selection diverged from sort-then-truncate\ngot:  %+v\nwant: %+v",
				k, capped.Apps[:min(3, len(capped.Apps))], want[:min(3, len(want))])
		}
	}
}

func TestImportProgress(t *testing.T) {
	var snaps []ImportProgress
	tr, err := ImportPhilly(strings.NewReader(syntheticPhilly(10)), ImportOptions{
		MaxApps:       4,
		ProgressEvery: 3,
		Progress:      func(p ImportProgress) { snaps = append(snaps, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Apps) != 4 {
		t.Fatalf("imported %d apps, want 4", len(tr.Apps))
	}
	// 10 rows at interval 3 → snapshots at rows 3, 6, 9 plus the Done one.
	if len(snaps) != 4 {
		t.Fatalf("got %d progress snapshots, want 4: %+v", len(snaps), snaps)
	}
	for i, p := range snaps {
		if p.Format != FormatPhilly {
			t.Errorf("snapshot %d format %q", i, p.Format)
		}
		if p.Kept > 4 {
			t.Errorf("snapshot %d retains %d apps despite MaxApps=4", i, p.Kept)
		}
		if i > 0 && (p.Rows < snaps[i-1].Rows || p.Bytes < snaps[i-1].Bytes) {
			t.Errorf("snapshot %d went backwards: %+v -> %+v", i, snaps[i-1], p)
		}
	}
	last := snaps[len(snaps)-1]
	if !last.Done || last.Rows != 10 || last.Bytes == 0 {
		t.Errorf("final snapshot %+v, want Done with 10 rows and non-zero bytes", last)
	}
	for _, p := range snaps[:len(snaps)-1] {
		if p.Done {
			t.Errorf("non-final snapshot marked Done: %+v", p)
		}
	}

	// The grouping adapter reports progress too, and its final snapshot
	// counts the apps kept under the cap.
	snaps = nil
	tr, err = ImportAlibaba(strings.NewReader(alibabaCSV), ImportOptions{
		MaxApps:       1,
		ProgressEvery: 1,
		Progress:      func(p ImportProgress) { snaps = append(snaps, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 || !snaps[len(snaps)-1].Done {
		t.Fatalf("alibaba progress snapshots: %+v", snaps)
	}
	if last := snaps[len(snaps)-1]; len(tr.Apps) != 1 || last.Kept != int64(len(tr.Apps)) {
		t.Errorf("alibaba final snapshot %+v for %d apps, want Kept = 1 = len(Apps)", last, len(tr.Apps))
	}
}

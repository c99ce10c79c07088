package bench

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"abnn2/internal/leakcheck"
	"abnn2/internal/transport"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden")

// TestQuickTablesPinned pins what the tables measure. The shape tests
// check orderings only; this one replays every measured run of the Quick
// tables 2-5, the CNN and planner tables and the six ablations and
// compares each run's bytes per direction and flights (the client
// endpoint's count), plus Table 1's analytic #OT, with the recorded file.
// All of it is seeded and schedule-independent, so the comparison is
// exact. A protocol change that moves a table's bytes regenerates the file
// with -update and shows the move in its diff; a harness change must pass
// without it.
func TestQuickTablesPinned(t *testing.T) {
	var got bytes.Buffer
	testHookRun = func(label string, s transport.Stats) {
		fmt.Fprintf(&got, "%-64s  %10d  %10d  %4d\n", label, s.BytesAB, s.BytesBA, s.Flights)
	}
	defer func() { testHookRun = nil }()

	opt := quickOpts()
	for _, r := range Table1(opt) {
		fmt.Fprintf(&got, "%-64s  %10d\n", "table1 "+r.System, r.NumOTs)
	}
	Table2(opt)
	Table3(opt)
	Table4(opt)
	Table5(opt)
	TableCNN(opt)
	TablePlan(opt)
	AblationOneBatch(opt)
	AblationMultiBatch(opt)
	AblationReLU(opt)
	AblationFragmentN(opt)
	AblationRing(opt)
	AblationXONN(opt)

	const path = "testdata/quick.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Errorf("%d measured runs, %s has %d", len(gl)-1, path, len(wl)-1)
	}
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d: label, bytes client->server, bytes server->client, flights\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
}

// TestRunPairOneSideFails: when one party returns an error while the
// other is parked in Recv, run closes the failing side's endpoint, the
// peer unblocks, both errors come back and no goroutine is left behind.
// (Before the harness did this a failed run sat until the test timeout.)
func TestRunPairOneSideFails(t *testing.T) {
	refuses := errors.New("refuses")
	waits := func(s side) error { _, err := s.conn.Recv(); return err }
	fails := func(side) error { return refuses }
	for _, tc := range []struct {
		name           string
		client, server func(side) error
	}{
		{"server fails", waits, fails},
		{"client fails", fails, waits},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := leakcheck.Base()
			done := make(chan error, 1)
			go func() {
				_, err := run(Options{}, tc.name, tc.client, tc.server)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, refuses) || !errors.Is(err, transport.ErrClosed) {
					t.Errorf("run returned %v, want both the refusal and the peer's ErrClosed", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("run did not return: the blocked party was never released")
			}
			leakcheck.Settle(t, base, tc.name)
		})
	}
}

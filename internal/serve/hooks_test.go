package serve

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestOnSwapAndExtraMetrics covers the two server extension hooks the
// fleet distributor builds on: OnSwap observes every successfully
// published snapshot (but not the initial one), and ExtraMetrics
// appends to the /metrics response.
func TestOnSwapAndExtraMetrics(t *testing.T) {
	var swaps []*Snapshot
	srv := newTestServer(t, Options{
		Source: func(ctx context.Context) (*Snapshot, error) { return NewSnapshot(testMapping(t), "test") },
		OnSwap: func(s *Snapshot) { swaps = append(swaps, s) },
		ExtraMetrics: func(w io.Writer) {
			fmt.Fprint(w, "borgesd_test_extra 42\n")
		},
	})
	if len(swaps) != 0 {
		t.Fatalf("OnSwap fired %d times before any reload", len(swaps))
	}

	next, err := srv.Reload(context.Background())
	if err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if len(swaps) != 1 || swaps[0] != next {
		t.Fatalf("OnSwap saw %d snapshots, want exactly the reloaded one", len(swaps))
	}

	rec := do(t, srv, "GET", "/metrics", nil)
	if !strings.Contains(rec.Body.String(), "borgesd_test_extra 42") {
		t.Fatalf("/metrics missing ExtraMetrics output:\n%s", rec.Body.String())
	}
}

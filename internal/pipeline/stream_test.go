package pipeline

import (
	"context"
	"errors"
	"testing"

	"ixplens/internal/netmodel"
	"ixplens/internal/traffic"
)

// TestStreamingCancelledPromptly: cancelling before the call aborts
// within one datagram flush rather than generating the whole week, on
// the serial branch and on the pool alike.
func TestStreamingCancelledPromptly(t *testing.T) {
	env, err := NewEnv(netmodel.Tiny(), traffic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		counts, _, _, err := env.streamWeek(ctx, env.Gen, 45, workers, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// One datagram carries a handful of samples; anything near a full
		// week (30k samples at test scale) means cancellation didn't bite.
		if counts.Total > 100 {
			t.Fatalf("workers=%d: classified %d samples after pre-cancel", workers, counts.Total)
		}
	}
}

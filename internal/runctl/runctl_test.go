package runctl

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestStopReasonStrings(t *testing.T) {
	cases := map[StopReason]string{
		StopNone:         "none",
		Bounded:          "bounded",
		MaxRounds:        "max-rounds",
		Stagnated:        "stagnated",
		Cancelled:        "cancelled",
		DeadlineExceeded: "deadline-exceeded",
		StopReason(99):   "unknown",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(r), got, want)
		}
	}
	if Bounded.Interrupted() || MaxRounds.Interrupted() || Stagnated.Interrupted() {
		t.Error("convergent reasons must not report Interrupted")
	}
	if !Cancelled.Interrupted() || !DeadlineExceeded.Interrupted() {
		t.Error("cancel/deadline must report Interrupted")
	}
}

func TestControllerZeroValueNeverStops(t *testing.T) {
	var c Controller
	if r, stop := c.Stop(); stop {
		t.Fatalf("zero controller stopped with %v", r)
	}
}

func TestControllerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := NewController(ctx, 0, time.Now())
	if _, stop := c.Stop(); stop {
		t.Fatal("stopped before cancel")
	}
	cancel()
	r, stop := c.Stop()
	if !stop || r != Cancelled {
		t.Fatalf("got (%v, %v), want (Cancelled, true)", r, stop)
	}
	if !errors.Is(r.Err(), context.Canceled) {
		t.Fatalf("Err() = %v", r.Err())
	}
}

func TestControllerContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	c := NewController(ctx, 0, time.Now())
	r, stop := c.Stop()
	if !stop || r != DeadlineExceeded {
		t.Fatalf("got (%v, %v), want (DeadlineExceeded, true)", r, stop)
	}
}

func TestControllerMaxRuntime(t *testing.T) {
	start := time.Now().Add(-time.Second)
	c := NewController(context.Background(), time.Millisecond, start)
	r, stop := c.Stop()
	if !stop || r != DeadlineExceeded {
		t.Fatalf("got (%v, %v), want (DeadlineExceeded, true)", r, stop)
	}
	if err := r.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() = %v", err)
	}
}

// TestControllerExplicitDeadline: the budget's end is the controller's
// explicit deadline; one already past stops the run, one in the future
// does not.
func TestControllerExplicitDeadline(t *testing.T) {
	c := NewController(context.Background(), time.Second, time.Now().Add(-2*time.Second))
	if r, stop := c.Stop(); !stop || r != DeadlineExceeded {
		t.Fatalf("got (%v, %v)", r, stop)
	}
	c = NewController(context.Background(), time.Hour, time.Now())
	if _, stop := c.Stop(); stop {
		t.Fatal("future deadline stopped immediately")
	}
}

func TestGuardPreservesTypedErrors(t *testing.T) {
	f := func() (err error) {
		defer Guard(&err)
		panic(errors.Join(ErrTooManyOutputs, errors.New("63 limit")))
	}
	if err := f(); !errors.Is(err, ErrTooManyOutputs) {
		t.Fatalf("typed panic not preserved: %v", err)
	}

	g := func() (err error) {
		defer Guard(&err)
		var s []int
		_ = s[3] // index out of range
		return nil
	}
	if err := g(); !errors.Is(err, ErrInternal) {
		t.Fatalf("runtime panic not wrapped in ErrInternal: %v", err)
	}

	h := func() (err error) {
		defer Guard(&err)
		return nil
	}
	if err := h(); err != nil {
		t.Fatalf("no-panic path returned %v", err)
	}
}

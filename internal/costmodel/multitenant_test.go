package costmodel

import "testing"

func TestClampConcurrency(t *testing.T) {
	cases := []struct{ in, want int }{
		{-1, 1}, {0, 1}, {1, 1}, {2, 2}, {8, 8},
		{MaxJobSlots, MaxJobSlots}, {MaxJobSlots + 1, MaxJobSlots}, {1 << 20, MaxJobSlots},
	}
	for _, c := range cases {
		if got := ClampConcurrency(c.in); got != c.want {
			t.Errorf("ClampConcurrency(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestJobQueueBound(t *testing.T) {
	cases := []struct{ run, want int }{
		{1, 8}, {2, 8}, {3, 12}, {16, 64}, {64, 256}, {128, 256},
	}
	for _, c := range cases {
		if got := JobQueueBound(c.run); got != c.want {
			t.Errorf("JobQueueBound(%d) = %d, want %d", c.run, got, c.want)
		}
	}
}

func TestShareWindowBytes(t *testing.T) {
	const tile = 100 << 10
	if got := ShareWindowBytes(1, 8, 1<<20, tile); got != 0 {
		t.Errorf("serial session should have no window, got %d", got)
	}
	// The window is the cache budget, in bytes.
	if got := ShareWindowBytes(2, 1, 700<<10, tile); got != 700<<10 {
		t.Errorf("2 jobs at a 700 KiB budget: got %d, want the budget", got)
	}
	// No cache budget: one tile per worker per job.
	if got := ShareWindowBytes(2, 4, 0, tile); got != 8*tile {
		t.Errorf("floor: got %d, want %d", got, 8*tile)
	}
	if got := ShareWindowBytes(3, 1, tile, tile); got != 3*tile {
		t.Errorf("budget below the floor: got %d, want %d", got, 3*tile)
	}
}

func TestWRRCharge(t *testing.T) {
	if got := WRRCharge(1); got != 1 {
		t.Errorf("WRRCharge(1) = %v", got)
	}
	if got := WRRCharge(2); got != 0.5 {
		t.Errorf("WRRCharge(2) = %v", got)
	}
	if got := WRRCharge(0); got != 1 {
		t.Errorf("WRRCharge(0) = %v, want 1 (clamped)", got)
	}
	if got := WRRCharge(-3); got != 1 {
		t.Errorf("WRRCharge(-3) = %v, want 1 (clamped)", got)
	}
	// Twice the weight, half the charge: the fairness invariant.
	if WRRCharge(4) != WRRCharge(2)/2 {
		t.Error("charge not inversely proportional to weight")
	}
}

package costmodel

// Multi-tenant admission and fairness sizing. A session that interleaves
// jobs needs three numbers: how many jobs may run at once (chosen by the
// caller), how deep the admission queue behind them may grow, and how many
// bytes of tiles the cross-job share window may pin while a lagging job
// catches up to the job that paid the disk read. The queue bound grows with
// the concurrency level and the window stays inside the cache budget, so a
// burst of Submits degrades to queueing — never to unbounded memory.

// MaxJobSlots caps the concurrency level of one session: job identities in
// the share window are bitmask slots in a uint64.
const MaxJobSlots = 64

// ClampConcurrency normalizes a requested concurrency level to a run-slot
// count: values below 2 mean one slot (one job owns the cluster at a time),
// and the level never exceeds MaxJobSlots.
func ClampConcurrency(n int) int {
	if n < 2 {
		return 1
	}
	if n > MaxJobSlots {
		return MaxJobSlots
	}
	return n
}

// JobQueueBound returns the admission-queue depth for a session running at
// most maxRun jobs concurrently: 4× the run slots, clamped to [8, 256].
// Enough that a bursty client can stage a batch of Submits without a
// rejection, small enough that a runaway submitter hits ErrJobQueueFull
// instead of exhausting memory with parked goroutines.
func JobQueueBound(maxRun int) int {
	b := 4 * maxRun
	if b < 8 {
		b = 8
	}
	if b > 256 {
		b = 256
	}
	return b
}

// ShareWindowBytes sizes the cross-job tile-sharing window in bytes: the
// server's cache capacity, so the tiles the leading job leaves pinned for
// laggards never outgrow the memory the cache itself may use. A laggard
// more than a window behind re-reads from disk anyway and self-aligns with
// the leader through the free hits. The window never drops below one tile
// (of tileBytes) per worker per job, so sharing survives on servers with
// no cache budget at all; one-slot sessions get no window.
func ShareWindowBytes(jobs, workersPerServer int, capacityBytes, tileBytes int64) int64 {
	if jobs < 2 {
		return 0
	}
	return max(capacityBytes, int64(jobs*workersPerServer)*tileBytes)
}

// WRRCharge is the virtual-time charge of one scheduling grant for a job
// with the given weight: 1/weight, so a weight-2 job accumulates virtual
// time half as fast and is granted twice as often when the step-edge gate
// is contended. Non-positive weights count as 1.
func WRRCharge(weight int) float64 {
	if weight <= 0 {
		weight = 1
	}
	return 1 / float64(weight)
}

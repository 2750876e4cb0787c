package core

// The data plane. Every wire frame is wrapped in a job envelope
// (comm.AppendJobHeader), and each server runs one frameRouter goroutine
// that owns the node's inbox for the whole session: it strips the envelope
// and drops the inner frame into the addressed job's mailbox. Runners
// never touch the inbox directly — they receive from their
// mailbox with recvMail, which reproduces the inbox's delivery contract
// (a pending message beats a racing cancel or stall; a membership change
// beats a pending message) using the node's membership primitives and a
// runner-local stall timer. The router is pure data plane: it takes no part
// in failure detection or recovery, so a membership change simply parks it
// until some runner acknowledges the new epoch, and stalls are diagnosed by
// the runner that knows which peers owe it traffic.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/comm"
)

// mail is one routed frame: the sender's rank and the payload with the job
// envelope stripped, still in the transport's receive buffer. release
// returns that buffer to the receive pool.
type mail struct {
	from    int
	payload []byte
	holder  *[]byte
}

func (m *mail) release() {
	cluster.ReleaseWireBuf(m.holder)
	m.holder = nil
}

// jobMailbox is the per-job delivery queue on one server.
type jobMailbox struct {
	ch chan mail
}

// routerAckPoll is how long the router sleeps between epoch checks while a
// membership change is being acknowledged by the runners.
const routerAckPoll = 500 * time.Microsecond

// frameRouter demultiplexes a node's inbox into per-job mailboxes.
type frameRouter struct {
	node    *cluster.Node
	boxCap  int
	onFatal func(error)

	mu      sync.Mutex
	boxes   map[uint32]*jobMailbox
	pending map[uint32][]mail // frames for jobs not yet registered here
	retired map[uint32]bool   // finished jobs; stale duplicates are dropped

	done chan struct{} // closed when the router goroutine exits
	stop chan struct{} // closed by the session to park a dead node's router
}

func newFrameRouter(n *cluster.Node, boxCap int, onFatal func(error)) *frameRouter {
	return &frameRouter{
		node:    n,
		boxCap:  boxCap,
		onFatal: onFatal,
		boxes:   make(map[uint32]*jobMailbox),
		pending: make(map[uint32][]mail),
		retired: make(map[uint32]bool),
		done:    make(chan struct{}),
		stop:    make(chan struct{}),
	}
}

// run is the router goroutine. It exits when the cluster closes (session
// teardown or abort), when the session halts it, or when this node is no
// longer a member — a fenced node receives nothing further that matters.
func (r *frameRouter) run() {
	defer close(r.done)
	for {
		err := r.node.RecvStreamOwned(nil, r.route)
		switch {
		case err == nil:
			continue
		case errors.Is(err, cluster.ErrRecvStall):
			// Stall detection is the runners' job: each one times its own
			// mailbox gaps and knows which peers owe it traffic. An idle
			// inbox is normal between jobs.
			continue
		case errors.Is(err, cluster.ErrMembershipChanged):
			// A runner in recovery will acknowledge the epoch; wait for it.
			// If this node itself was declared dead no runner ever will —
			// the runners are busy dying — so stand down.
			if !r.node.Alive(r.node.ID()) {
				return
			}
			select {
			case <-r.stop:
				return
			case <-time.After(routerAckPoll):
			}
			if !r.node.MembershipStale() {
				continue
			}
		default:
			if !errors.Is(err, cluster.ErrClosed) {
				r.onFatal(fmt.Errorf("core: server %d: job frame router: %w", r.node.ID(), err))
			}
			return
		}
	}
}

// route handles one inbox frame: decode the job envelope and deliver the
// inner frame, which keeps the transport's buffer until the runner is done
// with it. Frames for unregistered jobs wait in the pending
// buffer (a Submit's fan-out can reach a fast peer before the local runner
// spawns — at most a step of traffic, since peers then block on counted
// receives); frames for retired jobs are stale duplicates and are dropped.
func (r *frameRouter) route(from int, frame []byte, holder *[]byte) (bool, error) {
	job, inner, err := comm.DecodeJobFrame(frame)
	if err != nil {
		cluster.ReleaseWireBuf(holder)
		return false, fmt.Errorf("server %d: frame from %d: %w", r.node.ID(), from, err)
	}
	m := mail{from: from, payload: inner, holder: holder}
	r.mu.Lock()
	if box, ok := r.boxes[job]; ok {
		r.mu.Unlock()
		// The mailbox is sized for a full superstep of traffic, so this
		// send only blocks under pathological skew; blocking is then the
		// same backpressure a shared inbox would apply.
		box.ch <- m
		return false, nil
	}
	if r.retired[job] {
		r.mu.Unlock()
		m.release()
		return false, nil
	}
	r.pending[job] = append(r.pending[job], m)
	r.mu.Unlock()
	return false, nil
}

// register creates the mailbox for a job about to run on this server and
// flushes any frames that arrived early.
func (r *frameRouter) register(job uint32) *jobMailbox {
	box := &jobMailbox{ch: make(chan mail, r.boxCap)}
	r.mu.Lock()
	early := r.pending[job]
	delete(r.pending, job)
	delete(r.retired, job) // job IDs are never reused; defensive
	r.boxes[job] = box
	r.mu.Unlock()
	for _, m := range early {
		box.ch <- m
	}
	return box
}

// retire tears down a finished job's mailbox after every runner has passed
// the job's final barrier: later frames are in-flight duplicates and are
// dropped on arrival.
func (r *frameRouter) retire(job uint32) {
	r.mu.Lock()
	box := r.boxes[job]
	delete(r.boxes, job)
	for _, m := range r.pending[job] {
		m.release()
	}
	delete(r.pending, job)
	r.retired[job] = true
	r.mu.Unlock()
	if box != nil {
		for {
			select {
			case m := <-box.ch:
				m.release()
			default:
				return
			}
		}
	}
}

// halt parks the router if it is waiting out a membership change with no
// surviving runner to acknowledge it (session teardown).
func (r *frameRouter) halt() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
}

// recvMail receives routed frames for this runner's job until fn reports it
// is done, mirroring the node inbox contract: a delivered frame beats a
// racing cancel, stall, or router exit; a membership change beats a
// delivered frame; frames from since-dead senders are filtered. The stall
// timer is runner-local — it measures gaps in *this job's* traffic, so one
// job's quiet phase never accuses peers on another job's behalf. The frame
// is released back to the receive pool after fn returns; fn keeps the
// payload past that only by clearing m.holder, which detaches the buffer
// from the pool.
func (s *server) recvMail(ctx context.Context, fn func(m *mail) (bool, error)) error {
	n := s.node
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	gap := s.cfg.FailureTimeout
	var timer *time.Timer
	var stall <-chan time.Time
	if gap > 0 {
		timer = time.NewTimer(gap)
		defer timer.Stop()
		stall = timer.C
	}
	var m mail // one per call: fn receives its address
	for {
		// Same ordering as the inbox: load the interrupt channel before the
		// staleness check, so a declaration landing in between either fails
		// the check now or closes the channel we are about to select on.
		// The staleness check is against this runner's own acknowledged
		// epoch — a sibling runner's recovery ack must not hide a death.
		membCh := n.MembershipInterrupt()
		if n.MembershipStaleAt(s.ackedEpoch) {
			return cluster.ErrMembershipChanged
		}
		select {
		case m = <-s.mailbox.ch:
		case <-membCh:
			continue
		case <-cancel:
			select {
			case m = <-s.mailbox.ch:
			default:
				return ctx.Err()
			}
		case <-stall:
			select {
			case m = <-s.mailbox.ch:
			default:
				return cluster.ErrRecvStall
			}
		case <-s.rtr.done:
			select {
			case m = <-s.mailbox.ch:
			default:
				return fmt.Errorf("core: server %d: frame router stopped: %w", n.ID(), cluster.ErrClosed)
			}
		}
		if !n.Alive(m.from) {
			m.release()
			continue
		}
		if timer != nil {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(gap)
		}
		done, err := fn(&m)
		m.release()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

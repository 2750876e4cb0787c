package core

// Elastic membership (see docs/ARCHITECTURE.md, "Elastic membership").
// A dead server rejoins a live session in three acts:
//
//  1. Handshake. The joiner's controller goroutine sends a versioned join
//     request over the cluster's control plane (cluster.Node.CtlSend — the
//     one channel that works for non-members) to every live rank, the
//     coordinator (lowest live rank) first, and waits for an accept.
//     Requests are retried with exponential backoff plus deterministic
//     jitter under a hard deadline; live servers poll for requests only at
//     superstep edges (pollJoinRequests), so admission always lands at a
//     step boundary. The request is replicated to all live ranks because
//     mid-step servers may be stalled waiting on a peer and cannot poll —
//     whichever rank reaches its step edge first performs the admission,
//     and the declaration is idempotent for everyone else.
//  2. Admission. The polling server calls cluster.Node.DeclareJoined: the
//     membership epoch grows, the barriers are re-keyed to the larger
//     member count, and every in-flight runner's next blocked operation
//     unwinds with ErrMembershipChanged — the same level-triggered signal
//     a death raises, funneling everyone into the recovery protocol.
//  3. Fold-in. The session revives the node (reviveServer): the death flag
//     clears, a fresh frame router boots, and a replacement runner is
//     spawned for every job the dead node consumed as a zombie (runJob with
//     rejoin set). The replacement advertises need in the marker exchange,
//     is excluded from the restore consensus, receives the consensus
//     checkpoint from a donor (recovery.go streamCheckpoint), re-adopts
//     its own setup-persisted tiles through the ordinary reconcile pass,
//     and replays from restore+1 — bit-identically, like any survivor.
//
// A joiner that is admitted but dies again before restoring state (the
// scripted FailMidTransfer) is simply declared dead once more; survivors'
// next recovery pass re-acknowledges the shrunk view and proceeds without
// it — the pending grown epoch rolls back to a plain membership change.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Join-handshake frame codec. Frames travel the cluster control plane
// (CtlSend prefixes its own magic); these magics classify the inner frame.
const (
	// joinReqMagic opens a join request:
	// [magic][version u16][rank u16][attempt u32].
	joinReqMagic = 0xCE
	// joinRespMagic opens a join response: [magic][version u16][rank u16][accept u8].
	joinRespMagic = 0xCF

	// joinProtoVersion is the handshake wire version. A coordinator that
	// sees a different version rejects the request (accept=0) so a
	// mismatched joiner fails fast instead of retrying forever.
	joinProtoVersion = 1

	joinReqSize  = 1 + 2 + 2 + 4
	joinRespSize = 1 + 2 + 2 + 1
)

// Handshake retry policy: exponential backoff with deterministic jitter
// under a hard deadline derived from the cluster's failure timeout.
const (
	joinBackoffBase = 10 * time.Millisecond
	joinBackoffCap  = 250 * time.Millisecond
)

// appendJoinReq appends a join request for rank (attempt is a retry
// counter, for observability and response dedup).
func appendJoinReq(dst []byte, rank int, attempt uint32) []byte {
	dst = append(dst, joinReqMagic)
	dst = binary.LittleEndian.AppendUint16(dst, joinProtoVersion)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(rank))
	dst = binary.LittleEndian.AppendUint32(dst, attempt)
	return dst
}

// decodeJoinReq parses a join request. ok is false for anything malformed —
// control frames are unauthenticated input, so the decoder never panics and
// never trusts a length.
func decodeJoinReq(p []byte) (version, rank int, attempt uint32, ok bool) {
	if len(p) != joinReqSize || p[0] != joinReqMagic {
		return 0, 0, 0, false
	}
	version = int(binary.LittleEndian.Uint16(p[1:]))
	rank = int(binary.LittleEndian.Uint16(p[3:]))
	attempt = binary.LittleEndian.Uint32(p[5:])
	return version, rank, attempt, true
}

// appendJoinResp appends a join response for rank.
func appendJoinResp(dst []byte, rank int, accept bool) []byte {
	dst = append(dst, joinRespMagic)
	dst = binary.LittleEndian.AppendUint16(dst, joinProtoVersion)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(rank))
	if accept {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return dst
}

// decodeJoinResp parses a join response.
func decodeJoinResp(p []byte) (version, rank int, accept, ok bool) {
	if len(p) != joinRespSize || p[0] != joinRespMagic {
		return 0, 0, false, false
	}
	version = int(binary.LittleEndian.Uint16(p[1:]))
	rank = int(binary.LittleEndian.Uint16(p[3:]))
	accept = p[5] != 0
	return version, rank, accept, true
}

// joinJitter deterministically spreads a backoff interval ±25% — the result
// lands in [3d/4, 5d/4) — from the (rank, attempt) coordinate: deterministic
// so scripted fault plans replay identically, spread so two concurrent
// joiners don't beat in lockstep.
func joinJitter(d time.Duration, rank int, attempt uint32) time.Duration {
	h := uint64(rank)*0x9E3779B97F4A7C15 + uint64(attempt)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	frac := int64(h % 1024) // 0..1023
	return d/2 + time.Duration(int64(d)*frac/1024/2) + d/4
}

// pollJoinRequests is the live-server half of the handshake, called at the
// start of every superstep before any of the step's traffic. It admits a
// waiting joiner only when every in-flight job can absorb a membership grow:
// this runner's own job must be recoverable (the admission throws it into
// the recovery protocol), and the session-wide joinBlock counter must show
// no unrecoverable job in flight. Admission is idempotent — a duplicate
// request for an already-live rank just re-sends the accept, which the
// joiner's retry loop may have missed.
func (s *server) pollJoinRequests() {
	n := s.node
	if n.NumNodes() < 2 || n.AliveCount() == n.NumNodes() {
		return // full house: drain nothing, requests are stale or bogus
	}
	if s.ckptEvery <= 0 || s.cfg.Replication != AllInAll {
		return // this job cannot fold a newcomer in
	}
	if blk := s.shared.joinBlock; blk == nil || blk.Load() != 0 {
		return // some other in-flight job cannot
	}
	// The frame router owns the inbox and diverts control frames into the
	// poll queue as they arrive.
	for {
		p := n.CtlPoll()
		if p == nil {
			return
		}
		ver, rank, _, ok := decodeJoinReq(p)
		if !ok || rank < 0 || rank >= n.NumNodes() || rank == n.ID() {
			continue // malformed or nonsense: drop, the joiner retries
		}
		if ver != joinProtoVersion {
			_ = n.CtlSend(rank, appendJoinResp(nil, rank, false))
			continue
		}
		// Admit under the job registry's lock: the lock-free joinBlock check
		// above is only a fast path, and a Submit can publish an unrecoverable
		// job between it and the declaration. The request stays unanswered on
		// refusal; the joiner's retry loop re-sends it.
		if s.shared.admit == nil || !s.shared.admit(rank) {
			return
		}
		_ = n.CtlSend(rank, appendJoinResp(nil, rank, true))
	}
}

// ErrJoinTimeout marks a Join (or scripted rejoin) whose handshake never
// completed: no live server admitted the joiner before the deadline.
var ErrJoinTimeout = errors.New("core: join handshake timed out")

// ErrJoinRejected marks a join the coordinator refused — in practice a
// handshake version mismatch.
var ErrJoinRejected = errors.New("core: join rejected by coordinator")

// joinDeadline derives the handshake's hard deadline from the failure
// detector's timeout: long enough to span several detection rounds, with a
// floor for sessions running a very short (or zero) timeout.
func (se *Session) joinDeadline() time.Duration {
	d := 4 * se.cfg.FailureTimeout
	if d < 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// Join readmits a dead server into the live session: the handshake runs
// against the current coordinator, admission lands at a superstep edge, and
// the server is folded back in through the recovery protocol — receiving
// the newest consistent checkpoint from a donor when a job is in flight,
// and simply reclaiming its base tiles when the session is idle. Join
// returns once the server is a live member again (its replay, if any,
// continues in the background and is awaited by the in-flight Submit).
// Joining a live rank is a no-op. Cancelling ctx abandons the handshake.
func (se *Session) Join(ctx context.Context, rank int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return se.joinServer(ctx, rank, false)
}

// scriptedRejoin is the fault plan's entry point (compiledFaults.onRejoin):
// it runs the same protocol as Join on a background deadline. The returned
// channel closes when the rejoin has completed (or given up), so the runner
// that fired the coordinate can hold its step edge open for the admission
// (awaitRejoin) — without that, a short job could run to completion before
// the handshake ever lands.
func (se *Session) scriptedRejoin(f Rejoin) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), se.joinDeadline())
		defer cancel()
		// Scripted coordinates can fire on the same step edge as the kill
		// that makes the server eligible; give the kill a moment to land. A
		// rejoin for a server that stays alive is a no-op, per the Rejoin
		// contract.
		waitDead := time.Now().Add(100 * time.Millisecond)
		for se.cl.Alive(f.Server) {
			if time.Now().After(waitDead) {
				return
			}
			time.Sleep(time.Millisecond)
		}
		_ = se.joinServer(ctx, f.Server, f.FailMidTransfer)
	}()
	return done
}

// awaitRejoin parks the runner that fired a scripted rejoin at its step
// edge until the handshake completes, polling the control plane so the
// admission can land right here. Parking is essential for determinism (and
// for short jobs at all): the joiner's request needs a live server sitting
// at a step edge, and the firing runner is by definition at one. Peers
// stalled on this runner's traffic tolerate the pause the same way they
// tolerate any slow step, and the handshake resolves in milliseconds — the
// parked poll admits the joiner on its next spin. If this runner cannot
// admit anyone (unrecoverable job in flight), it does not park: the
// handshake stays in the background and fails by deadline.
func (s *server) awaitRejoin(done <-chan struct{}) {
	if s.ckptEvery <= 0 || s.cfg.Replication != AllInAll {
		return
	}
	if blk := s.shared.joinBlock; blk == nil || blk.Load() != 0 {
		return
	}
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	for {
		s.pollJoinRequests()
		select {
		case <-done:
			return
		case <-tick.C:
		}
	}
}

// joinServer is the joiner-side handshake loop shared by Join and the
// scripted rejoin: bounded retries with exponential backoff + jitter, a
// hard deadline, and a direct-admission fast path for an idle session
// (between jobs no live runner polls the control plane). failMidTransfer
// scripts the hardening case: complete the handshake, get admitted, then
// die again before restoring any state.
func (se *Session) joinServer(ctx context.Context, rank int, failMidTransfer bool) error {
	if rank < 0 || rank >= se.cfg.NumServers {
		return fmt.Errorf("core: Join of invalid server rank %d", rank)
	}
	if err := se.joinLiveErr(); err != nil {
		return err
	}
	n := se.cl.Node(rank)
	if n.Alive(rank) {
		return nil
	}

	deadline := time.Now().Add(se.joinDeadline())
	backoff := joinBackoffBase
	var attempt uint32
	admitted := false
	for !admitted {
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return ErrJoinTimeout
		}
		if err := se.joinLiveErr(); err != nil {
			return err
		}
		// Idle session: no runner will poll the control plane until the
		// next Submit, so the controller admits directly — under the job
		// registry's lock, so a racing Submit either sees the grown
		// membership or is registered first and defers us to its runners.
		if se.tryDirectAdmit(rank) {
			admitted = true
			break
		}
		if n.Alive(rank) { // a runner's poll admitted us
			admitted = true
			break
		}
		// Replicate the request to every live rank, coordinator first: a
		// mid-step server may be stalled on a peer and unable to poll, so
		// the joiner cannot know which rank will reach a step edge next.
		// Admission is idempotent, so duplicate accepts are harmless.
		attempt++
		req := appendJoinReq(nil, rank, attempt)
		sent := 0
		for i := 0; i < se.cfg.NumServers; i++ {
			if i == rank || !se.cl.Alive(i) {
				continue
			}
			if err := n.CtlSend(i, req); err == nil {
				sent++
			}
		}
		if sent == 0 {
			return fmt.Errorf("core: no live coordinator to join through")
		}
		// Wait out one backoff interval for the accept (or for the alive
		// flag to flip — the authoritative admission signal).
		wait := joinJitter(backoff, rank, attempt)
		if until := time.Until(deadline); wait > until {
			wait = until
		}
		waitEnd := time.Now().Add(wait)
		for !admitted && time.Now().Before(waitEnd) {
			if n.Alive(rank) {
				admitted = true
				break
			}
			slice := 5 * time.Millisecond
			if rem := time.Until(waitEnd); rem < slice {
				slice = rem
			}
			if slice <= 0 {
				break
			}
			p, err := n.CtlRecv(slice)
			if err != nil || p == nil {
				continue
			}
			ver, r, accept, ok := decodeJoinResp(p)
			if !ok || r != rank {
				continue
			}
			if !accept || ver != joinProtoVersion {
				return ErrJoinRejected
			}
			// Accepted: the admission may take one more instant to become
			// visible; the outer loop's Alive check picks it up.
			for !n.Alive(rank) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			admitted = n.Alive(rank)
		}
		if backoff *= 2; backoff > joinBackoffCap {
			backoff = joinBackoffCap
		}
	}

	if failMidTransfer {
		// Hardening script: the handshake succeeded, the epoch grew — and
		// the joiner dies again before restoring any state. Crash() declares
		// it dead immediately, so survivors' recovery pass re-acknowledges
		// the shrunk view at once instead of waiting out a marker stall; the
		// running step is not disturbed beyond the recovery it was already
		// performing.
		n.Crash()
		return ErrInjectedFault
	}
	se.reviveServer(rank)
	return nil
}

// joinLiveErr is liveErr for the join controller.
func (se *Session) joinLiveErr() error {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.liveErr("Join")
}

// tryDirectAdmit admits rank without a runner's help when no job is in
// flight. Holding the registry lock across the declaration and revival
// closes the race with a concurrent Submit: a job registered before we
// looked defers admission to its runners' step-edge polls; one registered
// after observes the grown membership (and, on the revived node, a cleared
// death flag) from its very first step.
func (se *Session) tryDirectAdmit(rank int) bool {
	se.regMu.Lock()
	defer se.regMu.Unlock()
	if len(se.inflight) > 0 {
		return false
	}
	se.cl.Node(rank).DeclareJoined(rank)
	se.reviveLocked(rank)
	return true
}

// reviveServer flips a just-admitted node from zombie back to participant.
func (se *Session) reviveServer(rank int) {
	se.regMu.Lock()
	se.reviveLocked(rank)
	se.regMu.Unlock()
}

// reviveLocked (caller holds regMu) clears the node's death flag, boots a
// fresh frame router (the old one's done channel is permanently closed),
// and spawns a replacement runner for every in-flight job — those the dead
// node consumed as zombies, and any it hasn't consumed yet (the ledger
// entry makes the normal path consume them as zombies, so exactly one
// runner per job survives). The death-flag flip and the ledger claims are
// one critical section under zMu, pairing with runJob's claimIfZombie. A
// replacement runs on its job's slot runner, after that runner's quiesce
// gate shows the killed predecessor has unwound.
func (se *Session) reviveLocked(rank int) {
	sv := se.servers[rank]
	sh := sv.shared
	sh.zMu.Lock()
	if !sh.dead.Load() {
		sh.zMu.Unlock()
		return // already revived (idempotent under racing admissions)
	}
	// The kill that felled this server must not fire again when the
	// replacement runners replay the superstep it died at.
	sv.faults.disarmKills(rank)
	// Count the comeback before any replacement runner (or later job)
	// snapshots the node's counters into its stats.
	sh.joins.Add(1)
	sh.router.Load().halt()
	r := newFrameRouter(sv.node, se.routerCap, se.noteFatal)
	sh.router.Store(r)
	go r.run()
	if sh.zombies == nil {
		sh.zombies = make(map[*job]bool)
	}
	jobs := make([]*job, 0, len(se.inflight))
	for jb := range se.inflight {
		sh.zombies[jb] = true // the normal path must not also run it
		jobs = append(jobs, jb)
	}
	for jb := range sh.zombies {
		if _, ok := se.inflight[jb]; !ok {
			delete(sh.zombies, jb) // finished while we were dead
		}
	}
	sh.dead.Store(false)
	sh.zMu.Unlock()

	for _, jb := range jobs {
		if !jb.grp.tryAdd() {
			continue // the job completed without us in the meantime
		}
		go func(jb *job) {
			if fatal := sv.slotRunner(jb.slot).runJob(jb, true); fatal != nil {
				se.noteFatal(fatal)
			}
			jb.grp.doneOne()
		}(jb)
	}
}

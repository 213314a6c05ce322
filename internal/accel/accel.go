// Package accel provides the two iteration-reducing engines of the
// solver's quality tiers:
//
//   - An extrapolated power method (Extrapolator): SQUAREM-style momentum
//     over the concatenated (x, z) iterate sequence of the T-Mark
//     fixed-point loop. Every third committed iterate the extrapolator
//     proposes a candidate far along the observed convergence direction;
//     the candidate is projected back onto the simplex and handed to the
//     solver, which vets it through one ordinary iteration pass (finite,
//     mass-conserving, residual strictly below the last committed one)
//     and falls back to plain iteration from the last committed iterate
//     when the vet fails. Answers therefore remain exact: every committed
//     iterate passed the same health probes a plain run applies.
//
//   - A linearized T-Mark operator (System): the relation distribution z
//     is frozen at a fixed z̄, which collapses the cubic tensor
//     contraction into one sparse matrix P and turns the fixed-point loop
//     into a single sparse linear solve, which the solver runs as blocked
//     Jacobi sweeps (geometric convergence at rate ≤ 1−α). The answer is
//     approximate — see System for the bound — but needs no tensor
//     streaming at all.
//
// The package is a leaf: it operates on raw float slices (blocked or
// flat) and never imports the solver, so the solver's lockstep loops can
// wire either engine in per column.
package accel

import (
	"math"

	"tmark/internal/fault"
)

// Extrapolation tuning. MinStep is the SQUAREM step length below which a
// proposal is pointless (s = −1 exactly reproduces the newest iterate).
// The step cap starts at initialMaxStep and doubles (up to stepCap) each
// time a jump that hit the cap is accepted — on a slowly mixing chain
// (contraction ρ → 1) the ideal step −1/(1−ρ) dwarfs any fixed cap, and
// the monotone vet already polices overshoot, so the cap only needs to
// tame the first jump from a cold curvature estimate; a rejection resets
// it. After maxConsecRejects consecutive rejected proposals the column
// sits out a cooldown of committed iterates before trying again, and the
// cooldown doubles (up to maxCooldown) on every consecutive shutoff —
// the monotone-residual vet keeps answers exact regardless, but every
// in-loop rejection costs one wasted lockstep pass, so a column whose
// current dynamics extrapolation cannot capture backs off exponentially
// instead of paying every window. Early iterations often reject (the
// trajectory is not yet dominated by one geometric mode) while the long
// tail accepts, which is why the backoff must re-engage rather than
// disable for good.
const (
	minStep          = -1.0
	initialMaxStep   = -64.0
	stepCap          = -4096.0
	maxConsecRejects = 2
	initialCooldown  = 8
	maxCooldown      = 256
	historyLen       = 3
)

// Counters aggregates one run's extrapolation activity across columns.
// The solver's driver goroutine owns it; plain ints suffice.
type Counters struct {
	Proposed int64 // candidates built (including fault-injected ones)
	Accepted int64 // candidates that passed the in-loop residual vet
	Rejected int64 // candidates discarded at propose time or by the vet
}

// Extrapolator accelerates one column of the lockstep solve. It watches
// the committed iterates (Observe), proposes extrapolated candidates
// when three consecutive ones are buffered (Propose), hands the
// candidate to the solver's block (ScatterCandidate, which also saves
// the pre-jump column for RestoreInto), and learns from the solver's
// verdict (Accept / Reject).
type Extrapolator struct {
	n, m int
	hist [historyLen][]float64 // committed (x‖z) iterates, oldest first
	nh   int

	cand    []float64 // projected candidate, valid while pending
	backup  []float64 // pre-jump committed column, for RestoreInto
	pending bool

	maxStep float64 // current (negative) step cap; grows on accepted capped jumps
	capped  bool    // the pending candidate's step hit maxStep

	consecRejects int
	cooldown      int // committed iterates to sit out before proposing again
	nextCooldown  int // length of the next shutoff window

	cnt *Counters
}

// NewExtrapolator builds the per-column state for an n-node, m-relation
// model. cnt receives the column's proposal/accept/reject counts; nil
// disables counting.
func NewExtrapolator(n, m int, cnt *Counters) *Extrapolator {
	e := &Extrapolator{n: n, m: m, cnt: cnt, maxStep: initialMaxStep, nextCooldown: initialCooldown}
	for i := range e.hist {
		e.hist[i] = make([]float64, n+m)
	}
	e.cand = make([]float64, n+m)
	e.backup = make([]float64, n+m)
	return e
}

// Active reports whether the extrapolator is currently proposing
// candidates; false while a shutoff cooldown is running. The solver must
// keep calling Observe during a cooldown — those committed iterates are
// what run the cooldown down.
func (e *Extrapolator) Active() bool { return e != nil && e.cooldown == 0 }

// Pending reports whether a candidate is waiting to be scattered into
// the block (or is currently riding a vet pass).
func (e *Extrapolator) Pending() bool { return e != nil && e.pending }

// Observe appends the committed iterate of this column — x at column col
// of the n-row block x (stride bx), z likewise — to the history buffer.
// Call it only for committed (health-checked) iterates; candidates under
// vet must not enter the history.
func (e *Extrapolator) Observe(x, z []float64, col, bx int) {
	if e == nil || e.pending {
		return
	}
	if e.cooldown > 0 {
		// Sitting out a shutoff window: the commit runs the cooldown down
		// but is not buffered — the window restarts from fresh iterates.
		e.cooldown--
		return
	}
	if e.nh == historyLen {
		// Slide: drop the oldest. Reached only when a full history did not
		// yield a proposal (step too small); keeping the window moving lets
		// the next commit retry.
		h0 := e.hist[0]
		copy(e.hist[:], e.hist[1:])
		e.hist[historyLen-1] = h0
		e.nh--
	}
	h := e.hist[e.nh]
	for r := 0; r < e.n; r++ {
		h[r] = x[r*bx+col]
	}
	for r := 0; r < e.m; r++ {
		h[e.n+r] = z[r*bx+col]
	}
	e.nh++
}

// Propose attempts to build an extrapolated candidate from the buffered
// history. It returns true when a candidate is ready for the next pass;
// false when the history is short, the step length is too small to beat
// the plain iterate, or the candidate died at the propose-time checks
// (non-finite after fault injection, or un-normalisable after clamping).
//
// The scheme is SQUAREM's S3 step over u = (x‖z): with three consecutive
// committed iterates h0, h1, h2,
//
//	r = h1 − h0,  v = h2 − 2·h1 + h0,  s = −‖r‖₂/‖v‖₂ (clamped to [−64, −1]),
//	u = h0 − 2s·r + s²·v,
//
// s = −1 reproduces h2 exactly, so |s| ≤ 1 proposes nothing. The x and z
// parts of u are each projected back onto the simplex (negative entries
// clamped to zero, then L1-normalised), so a scattered candidate is
// always a pair of probability vectors.
func (e *Extrapolator) Propose() bool {
	if e == nil || e.cooldown > 0 || e.pending || e.nh < historyLen {
		return false
	}
	h0, h1, h2 := e.hist[0], e.hist[1], e.hist[2]
	var rr, vv float64
	for i := range e.cand {
		r := h1[i] - h0[i]
		v := h2[i] - 2*h1[i] + h0[i]
		rr += r * r
		vv += v * v
	}
	if vv == 0 || rr == 0 {
		return false
	}
	s := -math.Sqrt(rr / vv)
	if s >= minStep { // |s| ≤ 1: the jump lands at or short of h2
		return false
	}
	e.capped = s < e.maxStep
	if e.capped {
		s = e.maxStep
	}
	for i := range e.cand {
		r := h1[i] - h0[i]
		v := h2[i] - 2*h1[i] + h0[i]
		e.cand[i] = h0[i] - 2*s*r + s*s*v
	}
	if e.cnt != nil {
		e.cnt.Proposed++
	}
	if fault.Enabled() {
		fault.Fire(fault.AccelPropose, e.cand, e.n, e.m)
	}
	if !projectSimplex(e.cand[:e.n]) || !projectSimplex(e.cand[e.n:]) {
		// Non-finite or massless candidate: reject at zero cost — no pass
		// is spent vetting it.
		e.noteReject()
		return false
	}
	e.pending = true
	return true
}

// ScatterCandidate writes the pending candidate into column col of the
// blocked x (n rows) and z (m rows), saving the column's current
// committed values first so RestoreInto can undo a rejected jump.
func (e *Extrapolator) ScatterCandidate(x, z []float64, col, bx int) {
	if !e.pending {
		panic("accel: ScatterCandidate without a pending candidate")
	}
	for r := 0; r < e.n; r++ {
		p := r*bx + col
		e.backup[r] = x[p]
		x[p] = e.cand[r]
	}
	for r := 0; r < e.m; r++ {
		p := r*bx + col
		e.backup[e.n+r] = z[p]
		z[p] = e.cand[e.n+r]
	}
}

// RestoreInto writes the saved pre-jump column back into column col of
// the blocked x and z — the solver calls it on the *next* iterates
// (xn/zn) of a rejected vet pass, so the wholesale commit that follows
// re-installs the last committed state and plain iteration resumes from
// exactly where it left off.
func (e *Extrapolator) RestoreInto(x, z []float64, col, bx int) {
	for r := 0; r < e.n; r++ {
		x[r*bx+col] = e.backup[r]
	}
	for r := 0; r < e.m; r++ {
		z[r*bx+col] = e.backup[e.n+r]
	}
}

// Accept records a successful vet: the candidate's iteration pass
// committed. The history restarts from scratch — the accepted iterate
// begins a new extrapolation window — and the backoff state resets. A
// jump that hit the step cap and was still accepted doubles the cap (up
// to stepCap): the curvature estimate wanted a longer step and the vet
// proved the direction sound, the signature of a slowly mixing chain
// whose ideal step −1/(1−ρ) far exceeds any fixed cap.
func (e *Extrapolator) Accept() {
	e.pending = false
	e.consecRejects = 0
	e.nextCooldown = initialCooldown
	if e.capped && e.maxStep > stepCap {
		e.maxStep *= 2
		if e.maxStep < stepCap {
			e.maxStep = stepCap
		}
	}
	e.nh = 0
	if e.cnt != nil {
		e.cnt.Accepted++
	}
}

// Reject records a failed vet (non-monotone residual, corrupted pass).
// After maxConsecRejects consecutive rejections the column's
// extrapolation sits out an exponentially growing cooldown of committed
// iterates, bounding the fraction of passes a hostile convergence path
// can waste while still re-engaging once the trajectory settles into a
// geometric tail.
func (e *Extrapolator) Reject() {
	e.pending = false
	e.noteReject()
}

func (e *Extrapolator) noteReject() {
	e.nh = 0
	e.maxStep = initialMaxStep
	e.consecRejects++
	if e.consecRejects >= maxConsecRejects {
		e.cooldown = e.nextCooldown
		if e.nextCooldown < maxCooldown {
			e.nextCooldown *= 2
		}
	}
	if e.cnt != nil {
		e.cnt.Rejected++
	}
}

// projectSimplex clamps negative entries to zero and L1-normalises in
// place, reporting false (vector untouched beyond the clamp) when the
// result is not a probability vector: non-finite input or zero mass.
func projectSimplex(v []float64) bool {
	var sum float64
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
		if x < 0 {
			v[i] = 0
			continue
		}
		sum += x
	}
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		return false
	}
	inv := 1 / sum
	for i := range v {
		v[i] *= inv
	}
	return true
}

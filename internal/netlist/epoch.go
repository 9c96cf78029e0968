package netlist

// Edit tracking: every timing-relevant mutation of a Design bumps a
// monotonically increasing edit epoch and records which instance it
// touched, so an incremental consumer (the STA engine) can find out, at
// any later point, whether anything changed since its last look and — when
// the record is still complete — exactly which instances were involved.
//
// Three classes of edit are distinguished:
//
//   - structural: data-path connectivity changed (a pin attached to or
//     detached from a non-clock net). The timing-graph topology is stale
//     and consumers must rebuild.
//   - clock: connectivity of a clock net changed. Data arcs are unaffected
//     (clock nets never carry data arcs) but propagated clock arrivals
//     must be recomputed.
//   - parametric: geometry or electrical parameters changed (MoveInst,
//     ResizeRegister). The graph topology survives; only delays, loads and
//     seeds in the neighbourhood of the touched instances move.
//
// Orthogonally to those semantic classes, every edit belongs to an *edit
// class* — a scope tag that routes the touched record into a per-class
// ring. EditClassFlow is the default: ordinary flow edits (moves, merges,
// resizes, skews) land there and are what TouchedSince reports. The
// retained clock-tree engine tags its internal buffer/net churn
// EditClassCTS, which keeps it out of the flow ring entirely: a CTS repair
// can touch thousands of instances without evicting the handful of flow
// edits the STA and compat-graph engines need to stay on their delta
// paths. Epochs are shared across classes (one monotonic counter), only
// the touched record is partitioned.
//
// Each touched record is a bounded circular ring (capacity
// SetTouchedLogCap, default defaultTouchedRingCap). A full ring evicts its
// oldest entry per append, so a reader is only incomplete when its cursor
// predates the oldest retained entry — readers that sync at least once per
// ring-capacity's worth of edits stay complete forever, however long the
// total edit stream runs. An incomplete read simply downgrades the
// consumer to a full rebuild — correctness never depends on a ring.
//
// All edits must go through the Design methods (Connect, Disconnect,
// MoveInst, ResizeRegister, ...); writing Inst.Pos or pin/net fields
// directly bypasses tracking and leaves incremental consumers stale.

// EditClass scopes an edit's touched record to one consumer group.
type EditClass uint8

const (
	// EditClassFlow is the default class: ordinary design edits, visible
	// to TouchedSince.
	EditClassFlow EditClass = iota
	// EditClassCTS tags the retained clock-tree engine's internal edits
	// (buffer adds/moves/removals, leaf-net rewires). They bump the shared
	// epochs but are recorded in a separate ring, invisible to
	// EditClassFlow consumers.
	EditClassCTS

	numEditClasses
)

// defaultTouchedRingCap bounds each touched-instance ring unless
// SetTouchedLogCap overrides it. 4096 entries cover the per-iteration edit
// volume of the composition flow's hot loop (skew + sizing touch at most a
// few hundred registers); bulk edits overflow it and correctly force a
// full rebuild.
const defaultTouchedRingCap = 4096

type touchedEntry struct {
	epoch uint64
	inst  InstID
}

// classRing is one edit class's bounded touched record: a circular buffer
// that evicts its oldest entry once full.
type classRing struct {
	// trackedFrom is the cursor floor: TouchedSince(c) is complete iff
	// c >= trackedFrom. It advances to each evicted entry's epoch.
	trackedFrom uint64
	buf         []touchedEntry // storage; grows to capacity, then wraps
	head        int            // index of the oldest retained entry
	n           int            // live entries
}

// clear drops the record; edits at or before the given epoch become
// untracked.
func (r *classRing) clear(epoch uint64) {
	r.buf = r.buf[:0]
	r.head = 0
	r.n = 0
	r.trackedFrom = epoch
}

// push appends an entry, evicting the oldest once the ring holds cap.
func (r *classRing) push(ent touchedEntry, cap int) {
	if len(r.buf) < cap {
		r.buf = append(r.buf, ent)
		r.n++
		return
	}
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = ent
		r.n++
		return
	}
	r.trackedFrom = r.buf[r.head].epoch
	r.buf[r.head] = ent
	r.head = (r.head + 1) % len(r.buf)
}

// at returns the i-th oldest retained entry, 0 <= i < n.
func (r *classRing) at(i int) touchedEntry {
	return r.buf[(r.head+i)%len(r.buf)]
}

// editLog is the per-Design edit tracker. The zero value is ready to use.
type editLog struct {
	epoch           uint64
	structuralEpoch uint64
	clockEpoch      uint64
	// class is the edit class subsequent edits are recorded under.
	class EditClass
	// cap is the per-class ring capacity (0 = defaultTouchedRingCap).
	cap   int
	rings [numEditClasses]classRing
}

func (e *editLog) ringCap() int {
	if e.cap > 0 {
		return e.cap
	}
	return defaultTouchedRingCap
}

// Epoch returns the design's current edit epoch. It increases by at least
// one on every timing-relevant mutation.
func (d *Design) Epoch() uint64 { return d.edits.epoch }

// StructuralEpoch returns the epoch of the last data-path connectivity
// change. A consumer whose cache was built at cursor c must rebuild its
// graph topology when StructuralEpoch() > c.
func (d *Design) StructuralEpoch() uint64 { return d.edits.structuralEpoch }

// ClockEpoch returns the epoch of the last clock-network connectivity
// change.
func (d *Design) ClockEpoch() uint64 { return d.edits.clockEpoch }

// EditClass returns the class new edits are currently recorded under.
func (d *Design) EditClass() EditClass { return d.edits.class }

// SetEditClass routes subsequent edits' touched records to the given
// class's ring and returns the previous class. Prefer WithEditClass for
// scoped use.
func (d *Design) SetEditClass(c EditClass) EditClass {
	prev := d.edits.class
	if c < numEditClasses {
		d.edits.class = c
	}
	return prev
}

// WithEditClass runs fn with the edit class temporarily switched, restoring
// the previous class afterwards (also on panic).
func (d *Design) WithEditClass(c EditClass, fn func()) {
	prev := d.SetEditClass(c)
	defer d.SetEditClass(prev)
	fn()
}

// TouchedLogCap returns the per-class touched-ring capacity.
func (d *Design) TouchedLogCap() int { return d.edits.ringCap() }

// SetTouchedLogCap sets the per-class touched-ring capacity (entries).
// n <= 0 restores the default. Non-empty rings are dropped wholesale on
// any capacity change (consumers degrade to a full rebuild once, exactly
// as on an overflowed cursor).
// ResetTouchedLog drops every class's touched ring, marking all past
// edits untracked (readers with older cursors see an incomplete record
// and degrade to their full paths, exactly as after an overflow). Callers
// that create their incremental consumers *after* a bulk construction
// phase — the flow does, its engines' first looks are full rebuilds by
// definition — use this to hand the rings' whole capacity to the edits
// that follow instead of the build churn that preceded them.
func (d *Design) ResetTouchedLog() {
	e := &d.edits
	for i := range e.rings {
		e.rings[i].clear(e.epoch)
	}
}

func (d *Design) SetTouchedLogCap(n int) {
	e := &d.edits
	if n <= 0 {
		n = 0
	}
	e.cap = n
	// Changing capacity re-shapes the circular storage; drop non-empty
	// rings wholesale rather than re-index them (consumers degrade to one
	// full rebuild, exactly as on an overflowed cursor).
	for i := range e.rings {
		if r := &e.rings[i]; r.n > 0 {
			r.clear(e.epoch)
		}
	}
}

// TouchedSince returns the IDs of instances touched by EditClassFlow edits
// after the given epoch, most recent first and deduplicated, plus whether
// the record is complete. complete == false means the ring was overwritten
// past the cursor and the caller must assume anything changed. Returned
// IDs may refer to since-removed instances (Inst returns nil).
func (d *Design) TouchedSince(epoch uint64) (touched []InstID, complete bool) {
	return d.TouchedSinceClass(epoch, EditClassFlow)
}

// TouchedSinceClass is TouchedSince restricted to one edit class's record.
func (d *Design) TouchedSinceClass(epoch uint64, class EditClass) (touched []InstID, complete bool) {
	if class >= numEditClasses {
		return nil, false
	}
	r := &d.edits.rings[class]
	if epoch < r.trackedFrom {
		return nil, false
	}
	seen := map[InstID]bool{}
	for i := r.n - 1; i >= 0; i-- {
		ent := r.at(i)
		if ent.epoch <= epoch {
			break
		}
		if !seen[ent.inst] {
			seen[ent.inst] = true
			touched = append(touched, ent.inst)
		}
	}
	return touched, true
}

// noteTouch records a parametric edit to the instance under the current
// edit class.
func (d *Design) noteTouch(inst InstID) {
	e := &d.edits
	e.epoch++
	e.rings[e.class].push(touchedEntry{epoch: e.epoch, inst: inst}, e.ringCap())
}

// noteLoad records a bulk construction — the design reader's — as one
// structural and one clock edit of the whole design. No ring entry names
// an instance: every ring restarts at the new epoch, so a cursor from
// before the load reads as incomplete and its holder rebuilds, exactly as
// after a ring overflow.
func (d *Design) noteLoad() {
	e := &d.edits
	e.epoch++
	e.structuralEpoch = e.epoch
	e.epoch++
	e.clockEpoch = e.epoch
	for i := range e.rings {
		e.rings[i].clear(e.epoch)
	}
}

// noteStructural records a data-path connectivity edit at the instance.
func (d *Design) noteStructural(inst InstID) {
	d.noteTouch(inst)
	d.edits.structuralEpoch = d.edits.epoch
}

// noteClock records a clock-network connectivity edit at the instance.
func (d *Design) noteClock(inst InstID) {
	d.noteTouch(inst)
	d.edits.clockEpoch = d.edits.epoch
}

// PinSpace returns an exclusive upper bound on every PinID ever issued by
// the design (including pins of removed instances). Pin-indexed slices
// sized to PinSpace can be addressed by any PinID without bounds checks.
func (d *Design) PinSpace() int { return len(d.pins) }

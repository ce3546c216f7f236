//go:build linux

package core

import "time"

// wheelSlots is the timer wheel's slot count. The wheel spans
// wheelSlots*tick of future time; deadlines beyond the horizon are
// parked in the last slot and re-examined when it fires (the lazy
// recompute below makes that cheap and correct).
const wheelSlots = 64

// timerWheel is a per-shard lazy timing wheel replacing the old
// O(conns) idle/header sweeps. Each live connection has at most one
// entry (conn.wheeled); when its slot fires the deadline is recomputed
// from the connection's CURRENT state — activity since scheduling just
// reschedules it, so reads and writes never touch the wheel on the hot
// path. Everything here is loop-owned: one wheel per shard, mutated
// only by that shard's event loop.
//
//nio:loop-owned
type timerWheel struct {
	tick  time.Duration
	slots [wheelSlots][]*conn
	// base is the wall time of the current slot's tick boundary; cur
	// advances one slot per elapsed tick.
	base  time.Time
	cur   int
	count int
}

// newTimerWheel returns a wheel for the configured timeouts, or nil if
// neither timeout knob is set (no wheel, unbounded poller waits). The
// tick is half the tightest timeout, floored at 10ms — the same
// resolution the old sweep-based loop bounded its waits to.
func newTimerWheel(cfg Config, now time.Time) *timerWheel {
	sweep := cfg.IdleTimeout
	if ht := cfg.HeaderTimeout; ht > 0 && (sweep == 0 || ht < sweep) {
		sweep = ht
	}
	if sweep <= 0 {
		return nil
	}
	tick := sweep / 2
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	return &timerWheel{tick: tick, base: now}
}

// schedule files c under the slot covering due. Deadlines past the
// horizon clamp to the farthest slot; expiry recomputes, so an early
// fire only costs a reschedule, never a premature close. The target is
// always at least one slot ahead of cur, so firing the current slot can
// never grow the slice it is iterating.
func (wh *timerWheel) schedule(c *conn, due, now time.Time) {
	ticks := int64(due.Sub(now)/wh.tick) + 1
	if ticks < 1 {
		ticks = 1
	}
	if ticks > wheelSlots-1 {
		ticks = wheelSlots - 1
	}
	slot := (wh.cur + int(ticks)) % wheelSlots
	wh.slots[slot] = append(wh.slots[slot], c)
	c.wheeled = true
	wh.count++
}

// fastForward re-anchors an empty wheel at now so a long-idle shard
// does not step slot-by-slot through the dead time when work returns.
func (wh *timerWheel) fastForward(now time.Time) {
	if d := now.Sub(wh.base); d >= wh.tick {
		k := int64(d / wh.tick)
		wh.base = wh.base.Add(time.Duration(k) * wh.tick)
		wh.cur = (wh.cur + int(k%wheelSlots)) % wheelSlots
	}
}

// scheduleTimeout files c's earliest deadline in the wheel, if it has
// one and is not already filed. Called where a deadline can newly
// arise: at adopt, after a read batch, and when the output queue
// drains (re-arming the idle clock).
func (w *shard) scheduleTimeout(c *conn, now time.Time) {
	wh := w.wheel
	if wh == nil || c.wheeled || c.closed {
		return
	}
	due := w.connDeadline(c)
	if due.IsZero() {
		return
	}
	wh.schedule(c, due, now)
}

// connDeadline returns the connection's earliest pending deadline, or
// zero if no timeout currently applies. The idle clock only runs while
// no output is queued (a blocked writer is not idle — matching the old
// sweepIdle); the header clock only runs while a complete request is
// owed and the server is not draining (drain already stopped reads).
func (w *shard) connDeadline(c *conn) time.Time {
	var due time.Time
	if it := w.srv.cfg.IdleTimeout; it > 0 && len(c.out) == 0 {
		due = c.lastActive.Add(it)
	}
	if ht := w.srv.cfg.HeaderTimeout; ht > 0 && !w.draining && !c.headerStart.IsZero() {
		if hd := c.headerStart.Add(ht); due.IsZero() || hd.Before(due) {
			due = hd
		}
	}
	return due
}

// advanceWheel steps the wheel up to now, firing each slot it passes.
// One call steps at most a full revolution; if the loop was parked
// longer than the wheel's span (only possible when the wheel emptied,
// since a non-empty wheel bounds the poller wait to one tick), the
// remainder collapses into a re-anchor at now.
func (w *shard) advanceWheel(now time.Time) {
	wh := w.wheel
	if wh == nil {
		return
	}
	if wh.count == 0 {
		wh.fastForward(now)
		return
	}
	steps := 0
	for steps < wheelSlots && !wh.base.Add(wh.tick).After(now) {
		wh.base = wh.base.Add(wh.tick)
		wh.cur = (wh.cur + 1) % wheelSlots
		steps++
		w.fireSlot(now)
	}
	if steps == wheelSlots {
		wh.base = now
	}
}

// fireSlot expires or reschedules every connection filed under the
// current slot. Entries are nilled as they are consumed so dead
// connections are not pinned by the recycled backing array.
func (w *shard) fireSlot(now time.Time) {
	wh := w.wheel
	slot := wh.slots[wh.cur]
	wh.slots[wh.cur] = slot[:0]
	for i, c := range slot {
		slot[i] = nil
		c.wheeled = false
		wh.count--
		if c.closed {
			w.retire(c) // closeConn left it to the wheel
			continue
		}
		w.expireConn(c, now)
	}
}

// expireConn applies the timeout policies to one fired connection:
// header timeout first (the slowloris defense — dribbled bytes reset
// lastActive but not headerStart, so a dribbler cannot outrun it),
// then the idle policy, else reschedule at the recomputed deadline.
func (w *shard) expireConn(c *conn, now time.Time) {
	if ht := w.srv.cfg.HeaderTimeout; ht > 0 && !w.draining &&
		!c.headerStart.IsZero() && !c.headerStart.Add(ht).After(now) {
		w.stats.headerTimeouts.add(1)
		w.resetConn(c)
		return
	}
	if it := w.srv.cfg.IdleTimeout; it > 0 && len(c.out) == 0 &&
		!c.lastActive.Add(it).After(now) {
		w.stats.idleCloses.add(1)
		w.resetConn(c)
		return
	}
	w.scheduleTimeout(c, now)
}

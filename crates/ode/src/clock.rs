//! The virtual clock and timer store for time events (Section 3.1
//! item 3).
//!
//! Time events "are really global, but are considered events of interest
//! and posted only to the 'relevant' objects" — those with an active
//! trigger mentioning the time event. The engine registers timers when
//! such a trigger is activated; [`crate::engine::Database::advance_clock_to`]
//! drains due timers in timestamp order and posts the corresponding
//! time events inside system transactions.
//!
//! Scoping: `at time(…)` patterns are absolute calendar happenings, so
//! one posting per object serves every trigger listening to the same
//! pattern; `every time(…)` and `after time(…)` are anchored at a
//! specific trigger's activation instant, so their postings are scoped
//! to that trigger instance alone.
//!
//! ## The hierarchical timer wheel
//!
//! With millions of armed timers, a comparison-ordered queue pays
//! O(log n) per arm and — worse — `advance-clock` pays a popped-heap
//! rebalance per due timer while every *not*-due timer still weighs the
//! structure down. Timers here live in a hierarchical timer wheel
//! instead: [`WHEEL_LEVELS`] levels of [`WHEEL_SLOTS`] slots, level `l`
//! spanning `64^l` ms per slot, so the whole wheel covers the full
//! `u64` millisecond range and nothing ever overflows. Arming is O(1)
//! (two shifts and a push), and advancing costs O(occupied slots
//! visited + due timers): each level keeps a 64-bit occupancy bitmap,
//! so `advance_to` leaps directly from one occupied slot boundary to
//! the next — the millions of armed-but-not-due timers parked in
//! higher levels are never touched. Firing order is exactly the old
//! queue's: chronological, ties broken by arming order (`counter`),
//! which the wheel preserves by cascading higher-level slots down
//! before their timers come due and sorting the (single-due-instant)
//! level-0 slot by counter.

use ode_core::{TimeEvent, TimeSpec};
use serde::{Deserialize, Serialize};

use crate::ids::ObjectId;

/// Who a time-event posting is visible to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TimerScope {
    /// Every trigger on the object (absolute `at` patterns).
    Object,
    /// Only the trigger instance with this index (activation-anchored
    /// `every`/`after` durations).
    Trigger(usize),
}

/// A registered timer.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Timer {
    /// The object the event will be posted to.
    pub object: ObjectId,
    /// Which triggers see the posting.
    pub scope: TimerScope,
    /// The time event to post.
    pub event: TimeEvent,
    /// Recurrence: `None` for one-shot (`after`), period for `every`,
    /// pattern for `at`.
    pub recurrence: Recurrence,
}

/// How a timer reschedules itself.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Recurrence {
    /// Fire once.
    OneShot,
    /// Fire every `period` ms.
    Periodic(u64),
    /// Fire at each match of the calendar pattern.
    Pattern(TimeSpec),
}

/// Slots per wheel level (one 6-bit digit of the due instant).
pub const WHEEL_SLOTS: usize = 64;
/// Wheel levels. `ceil(64 / 6) = 11` levels cover every `u64` due
/// instant, so there is no overflow list to special-case.
pub const WHEEL_LEVELS: usize = 11;

const SLOT_BITS: u32 = 6;
const SLOT_MASK: u64 = (WHEEL_SLOTS as u64) - 1;

/// One armed entry: due instant, arming sequence (tie-break), timer.
type Entry = (u64, u64, Timer);

/// One wheel level: 64 slots plus an occupancy bitmap (bit `s` set iff
/// `slots[s]` is non-empty) so slot scans are a couple of bit ops.
#[derive(Debug)]
struct Level {
    slots: Vec<Vec<Entry>>,
    occupied: u64,
}

impl Level {
    fn new() -> Level {
        Level {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: 0,
        }
    }
}

/// The virtual clock: current time plus the hierarchical timer wheel.
#[derive(Debug)]
pub struct Clock {
    now: u64,
    levels: Vec<Level>,
    /// Armed-timer count (the bitmap tracks slots, not timers).
    len: usize,
    counter: u64,
}

impl Default for Clock {
    fn default() -> Self {
        Clock {
            now: 0,
            levels: (0..WHEEL_LEVELS).map(|_| Level::new()).collect(),
            len: 0,
            counter: 0,
        }
    }
}

/// The wheel position for a timer due at `due` when the clock reads
/// `now` (requires `due > now`): the level of the highest 6-bit digit
/// in which `due` and `now` differ, and `due`'s digit at that level.
#[inline]
fn level_slot(now: u64, due: u64) -> (usize, usize) {
    debug_assert!(due > now);
    let level = ((63 - (due ^ now).leading_zeros()) / SLOT_BITS) as usize;
    let slot = ((due >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
    (level, slot)
}

impl Clock {
    /// Current virtual time (ms since epoch 0).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Register a timer due at `due`. Timers in the past are dropped.
    pub fn schedule(&mut self, due: u64, timer: Timer) {
        if due > self.now {
            self.counter += 1;
            let c = self.counter;
            self.insert(due, c, timer);
        }
    }

    /// Park an entry at its wheel position relative to the current
    /// `now`. O(1): two shifts, a bitmap or, a push.
    fn insert(&mut self, due: u64, counter: u64, timer: Timer) {
        let (level, slot) = level_slot(self.now, due);
        let lv = &mut self.levels[level];
        lv.slots[slot].push((due, counter, timer));
        lv.occupied |= 1u64 << slot;
        self.len += 1;
    }

    /// Register a timer for a parsed time event, anchored at `anchor`
    /// (the trigger activation instant). Returns `false` if the event can
    /// never fire (empty pattern or zero period).
    pub fn schedule_event(
        &mut self,
        object: ObjectId,
        scope: TimerScope,
        event: &TimeEvent,
        anchor: u64,
    ) -> bool {
        match event {
            TimeEvent::At(spec) => match spec.next_match_after(anchor) {
                Some(due) => {
                    self.schedule(
                        due,
                        Timer {
                            object,
                            scope: TimerScope::Object,
                            event: event.clone(),
                            recurrence: Recurrence::Pattern(*spec),
                        },
                    );
                    true
                }
                None => false,
            },
            TimeEvent::Every(spec) => {
                let period = spec.as_duration_ms();
                if period == 0 {
                    return false;
                }
                self.schedule(
                    anchor + period,
                    Timer {
                        object,
                        scope,
                        event: event.clone(),
                        recurrence: Recurrence::Periodic(period),
                    },
                );
                true
            }
            TimeEvent::After(spec) => {
                let delay = spec.as_duration_ms();
                if delay == 0 {
                    return false;
                }
                self.schedule(
                    anchor + delay,
                    Timer {
                        object,
                        scope,
                        event: event.clone(),
                        recurrence: Recurrence::OneShot,
                    },
                );
                true
            }
        }
    }

    /// The next slot boundary holding timers — the earliest time at
    /// which a stored timer must be cascaded or fired — as
    /// `(instant, level, slot)`, or `None` when the wheel is empty.
    /// O(levels): one bitmap scan per level.
    ///
    /// For level `l` with the clock at `now`, an occupied slot `s`
    /// (always strictly above `now`'s digit at that level, because
    /// every stored timer's due is in the future) starts at `now` with
    /// its digits at and below level `l` replaced by `s` followed by
    /// zeros. Within a level the smallest occupied slot index is the
    /// earliest boundary, and boundaries of distinct levels are never
    /// equal (a level-`l` boundary has a non-zero digit at level `l`
    /// and zeros below), so the minimum is unique.
    fn next_boundary(&self) -> Option<(u64, usize, usize)> {
        let mut best: Option<(u64, usize, usize)> = None;
        for (level, lv) in self.levels.iter().enumerate() {
            if lv.occupied == 0 {
                continue;
            }
            let shift = SLOT_BITS * level as u32;
            let s = lv.occupied.trailing_zeros() as u64;
            debug_assert!(
                s > (self.now >> shift) & SLOT_MASK,
                "slot at or behind the cursor at level {level}"
            );
            let clear_mask: u64 = if shift + SLOT_BITS >= 64 {
                u64::MAX // top level: replace every digit
            } else {
                (1u64 << (shift + SLOT_BITS)) - 1
            };
            let start = (self.now & !clear_mask) | (s << shift);
            // MSRV 1.75: spelled out instead of `Option::is_none_or`.
            let better = match best {
                Some((b, _, _)) => start < b,
                None => true,
            };
            if better {
                best = Some((start, level, s as usize));
            }
        }
        best
    }

    /// Advance to `target`, returning the due timers in firing order.
    /// Recurring timers are rescheduled; the clock ends at `target`.
    ///
    /// Cost: O(occupied slot boundaries visited + due timers). Slot
    /// boundaries strictly between `now` and `target` with nothing in
    /// them are leapt over via the occupancy bitmaps, so a tick that
    /// fires nothing is O(levels) no matter how many timers are armed.
    pub fn advance_to(&mut self, target: u64) -> Vec<(u64, Timer)> {
        let mut fired = Vec::new();
        while let Some((t, level, slot)) = self.next_boundary() {
            if t > target {
                break;
            }
            self.now = t;
            let lv = &mut self.levels[level];
            let entries = std::mem::take(&mut lv.slots[slot]);
            lv.occupied &= !(1u64 << slot);
            self.len -= entries.len();
            // Split the slot: timers due exactly now fire (in arming
            // order); later ones cascade to a lower level (their
            // highest differing digit just dropped below `level`).
            let mut due_now: Vec<Entry> = Vec::new();
            for (due, c, timer) in entries {
                if due <= t {
                    due_now.push((due, c, timer));
                } else {
                    self.insert(due, c, timer);
                }
            }
            due_now.sort_by_key(|&(due, c, _)| (due, c));
            for (due, _, timer) in due_now {
                match &timer.recurrence {
                    Recurrence::OneShot => {}
                    Recurrence::Periodic(p) => {
                        let next = due + p;
                        self.counter += 1;
                        let c = self.counter;
                        self.insert(next, c, timer.clone());
                    }
                    Recurrence::Pattern(spec) => {
                        if let Some(next) = spec.next_match_after(due) {
                            self.counter += 1;
                            let c = self.counter;
                            self.insert(next, c, timer.clone());
                        }
                    }
                }
                fired.push((due, timer));
            }
        }
        self.now = self.now.max(target);
        fired
    }

    /// Drop every timer belonging to `object` (object deletion).
    /// O(armed timers) — deletion is rare and off the tick path.
    pub fn cancel_object(&mut self, object: ObjectId) {
        for lv in &mut self.levels {
            let mut occ = lv.occupied;
            while occ != 0 {
                let s = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let slot = &mut lv.slots[s];
                let before = slot.len();
                slot.retain(|(_, _, t)| t.object != object);
                self.len -= before - slot.len();
                if slot.is_empty() {
                    lv.occupied &= !(1u64 << s);
                }
            }
        }
    }

    /// Number of pending timers.
    pub fn pending(&self) -> usize {
        self.len
    }

    /// All pending timers as `(due, timer)`, in firing order
    /// (persistence export).
    pub fn export_timers(&self) -> Vec<(u64, Timer)> {
        let mut v: Vec<Entry> = self
            .levels
            .iter()
            .flat_map(|lv| lv.slots.iter().flatten().cloned())
            .collect();
        v.sort();
        v.into_iter().map(|(due, _, t)| (due, t)).collect()
    }

    /// Rebuild the clock from a persisted state.
    pub fn import(&mut self, now: u64, timers: Vec<(u64, Timer)>) {
        self.now = now;
        for lv in &mut self.levels {
            for slot in &mut lv.slots {
                slot.clear();
            }
            lv.occupied = 0;
        }
        self.len = 0;
        self.counter = 0;
        for (due, t) in timers {
            self.counter += 1;
            let c = self.counter;
            if due > now {
                self.insert(due, c, t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ode_core::event::calendar;

    fn obj() -> ObjectId {
        ObjectId(1)
    }

    #[test]
    fn at_pattern_recurs_daily() {
        let mut c = Clock::default();
        let nine = TimeEvent::At(TimeSpec::at_hour(9));
        assert!(c.schedule_event(obj(), TimerScope::Object, &nine, 0));
        let fired = c.advance_to(3 * calendar::DAY);
        assert_eq!(fired.len(), 3);
        assert_eq!(fired[0].0, 9 * calendar::HR);
        assert_eq!(fired[1].0, calendar::DAY + 9 * calendar::HR);
        assert_eq!(fired[2].0, 2 * calendar::DAY + 9 * calendar::HR);
        assert_eq!(c.now(), 3 * calendar::DAY);
    }

    #[test]
    fn every_is_periodic_from_anchor() {
        let mut c = Clock::default();
        c.advance_to(100);
        let ev = TimeEvent::Every(TimeSpec {
            sec: Some(2),
            ..Default::default()
        });
        assert!(c.schedule_event(obj(), TimerScope::Trigger(0), &ev, 100));
        let fired = c.advance_to(100 + 5 * calendar::SEC);
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0].0, 100 + 2 * calendar::SEC);
        assert_eq!(fired[1].0, 100 + 4 * calendar::SEC);
        assert_eq!(fired[0].1.scope, TimerScope::Trigger(0));
    }

    #[test]
    fn after_fires_once() {
        let mut c = Clock::default();
        let ev = TimeEvent::After(TimeSpec {
            hr: Some(2),
            min: Some(30),
            ..Default::default()
        });
        assert!(c.schedule_event(obj(), TimerScope::Trigger(3), &ev, 0));
        let fired = c.advance_to(calendar::DAY);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].0, 2 * calendar::HR + 30 * calendar::MIN);
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn empty_specs_rejected() {
        let mut c = Clock::default();
        assert!(!c.schedule_event(
            obj(),
            TimerScope::Object,
            &TimeEvent::Every(TimeSpec::default()),
            0
        ));
        assert!(!c.schedule_event(
            obj(),
            TimerScope::Object,
            &TimeEvent::At(TimeSpec::default()),
            0
        ));
    }

    #[test]
    fn cancel_object_drops_timers() {
        let mut c = Clock::default();
        let ev = TimeEvent::Every(TimeSpec {
            sec: Some(1),
            ..Default::default()
        });
        c.schedule_event(ObjectId(1), TimerScope::Object, &ev, 0);
        c.schedule_event(ObjectId(2), TimerScope::Object, &ev, 0);
        assert_eq!(c.pending(), 2);
        c.cancel_object(ObjectId(1));
        assert_eq!(c.pending(), 1);
        let fired = c.advance_to(calendar::SEC);
        assert_eq!(fired[0].1.object, ObjectId(2));
    }

    #[test]
    fn firing_order_is_chronological() {
        let mut c = Clock::default();
        c.schedule(
            50,
            Timer {
                object: ObjectId(2),
                scope: TimerScope::Object,
                event: TimeEvent::After(TimeSpec::default()),
                recurrence: Recurrence::OneShot,
            },
        );
        c.schedule(
            10,
            Timer {
                object: ObjectId(1),
                scope: TimerScope::Object,
                event: TimeEvent::After(TimeSpec::default()),
                recurrence: Recurrence::OneShot,
            },
        );
        let fired = c.advance_to(100);
        assert_eq!(fired[0].0, 10);
        assert_eq!(fired[1].0, 50);
    }

    #[test]
    fn same_instant_fires_in_arming_order() {
        let mut c = Clock::default();
        for i in 1..=5u64 {
            c.schedule(
                64, // exactly a level-1 boundary
                Timer {
                    object: ObjectId(i),
                    scope: TimerScope::Object,
                    event: TimeEvent::After(TimeSpec::default()),
                    recurrence: Recurrence::OneShot,
                },
            );
        }
        let fired = c.advance_to(64);
        let order: Vec<u64> = fired.iter().map(|(_, t)| t.object.0).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
        assert_eq!(c.now(), 64);
    }

    #[test]
    fn far_future_timers_cascade_correctly() {
        let mut c = Clock::default();
        // One timer per wheel level, all distinct instants.
        let dues = [3u64, 70, 4_100, 300_000, 20_000_000, 1_u64 << 40];
        for (i, &due) in dues.iter().enumerate() {
            c.schedule(
                due,
                Timer {
                    object: ObjectId(i as u64 + 1),
                    scope: TimerScope::Object,
                    event: TimeEvent::After(TimeSpec::default()),
                    recurrence: Recurrence::OneShot,
                },
            );
        }
        let fired = c.advance_to(1 << 41);
        let got: Vec<u64> = fired.iter().map(|(due, _)| *due).collect();
        assert_eq!(got, dues.to_vec());
        assert_eq!(c.pending(), 0);
        assert_eq!(c.now(), 1 << 41);
    }

    #[test]
    fn import_replays_export() {
        let mut c = Clock::default();
        let ev = TimeEvent::Every(TimeSpec {
            sec: Some(3),
            ..Default::default()
        });
        c.schedule_event(ObjectId(1), TimerScope::Trigger(0), &ev, 0);
        c.schedule_event(ObjectId(2), TimerScope::Trigger(1), &ev, 0);
        c.advance_to(1000);
        let exported = c.export_timers();
        let mut c2 = Clock::default();
        c2.import(c.now(), exported.clone());
        assert_eq!(c2.pending(), exported.len());
        assert_eq!(c.advance_to(20_000), c2.advance_to(20_000));
    }
}

//! Timer-wheel equivalence: the hierarchical wheel in
//! [`ode_db::clock`] must be observationally identical to a naive
//! sorted scan over every armed timer, under arbitrary interleavings
//! of arming (`at`/`every`/`after`), cancellation (the object-deletion
//! path a `Deactivate`-then-`Delete` takes), and `advance-clock`
//! schedules — including `every` re-arming inside one advance and
//! advances that leap whole wheel levels at once.

use ode_core::event::calendar;
use ode_core::{TimeEvent, TimeSpec};
use ode_db::clock::{Clock, Recurrence, Timer, TimerScope};
use ode_db::ObjectId;
use proptest::prelude::*;

/// The reference implementation: a flat vector scanned linearly, the
/// exact semantics `Clock` promises (chronological firing, ties in
/// arming order, recurring timers rescheduled from their due instant).
#[derive(Default)]
struct NaiveClock {
    now: u64,
    entries: Vec<(u64, u64, Timer)>,
    counter: u64,
}

impl NaiveClock {
    fn schedule(&mut self, due: u64, timer: Timer) {
        if due > self.now {
            self.counter += 1;
            self.entries.push((due, self.counter, timer));
        }
    }

    fn schedule_event(
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

    fn advance_to(&mut self, target: u64) -> Vec<(u64, Timer)> {
        let mut fired = Vec::new();
        // Linear scan for the earliest (due, arming-seq) entry.
        while let Some(best) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, (due, c, _))| (*due, *c))
            .map(|(i, _)| i)
        {
            let (due, _, timer) = self.entries[best].clone();
            if due > target {
                break;
            }
            self.entries.remove(best);
            self.now = due;
            match &timer.recurrence {
                Recurrence::OneShot => {}
                Recurrence::Periodic(p) => {
                    self.counter += 1;
                    self.entries.push((due + p, self.counter, timer.clone()));
                }
                Recurrence::Pattern(spec) => {
                    if let Some(next) = spec.next_match_after(due) {
                        self.counter += 1;
                        self.entries.push((next, self.counter, timer.clone()));
                    }
                }
            }
            fired.push((due, timer));
        }
        self.now = self.now.max(target);
        fired
    }

    fn cancel_object(&mut self, object: ObjectId) {
        self.entries.retain(|(_, _, t)| t.object != object);
    }

    fn export(&self) -> Vec<(u64, Timer)> {
        let mut v = self.entries.clone();
        v.sort();
        v.into_iter().map(|(due, _, t)| (due, t)).collect()
    }
}

/// One scripted step against both clocks.
#[derive(Clone, Debug)]
enum Op {
    /// Arm `after time(delay)` on an object (one-shot).
    After {
        object: u64,
        trigger: usize,
        delay_ms: u64,
    },
    /// Arm `every time(period)` on an object (re-arming).
    Every {
        object: u64,
        trigger: usize,
        period_ms: u64,
    },
    /// Arm `at time(hr:min)` on an object (calendar pattern).
    At { object: u64, hr: u32, min: u32 },
    /// Deactivate-and-delete path: drop every timer of the object.
    Cancel { object: u64 },
    /// `advance-clock by delta`.
    Advance { delta_ms: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..6, 0usize..4, 1u64..500_000).prop_map(|(object, trigger, delay_ms)| Op::After {
            object,
            trigger,
            delay_ms
        }),
        // Period floor keeps the firing count bounded: the naive model
        // replays every individual firing, so a 1ms period under an
        // hour-long advance would mean millions of them per case.
        (1u64..6, 0usize..4, 5_000u64..50_000).prop_map(|(object, trigger, period_ms)| {
            Op::Every {
                object,
                trigger,
                period_ms,
            }
        }),
        (1u64..6, 0u32..24, 0u32..60).prop_map(|(object, hr, min)| Op::At { object, hr, min }),
        (1u64..6).prop_map(|object| Op::Cancel { object }),
        // Mix sub-slot creeps, level-crossing hops, and hour-scale
        // leaps; multi-year jumps live in `huge_leaps_match_naive`
        // below, where no short-period timer can explode the count.
        prop_oneof![1u64..64, 64u64..5_000, 5_000u64..3_600_000]
            .prop_map(|delta_ms| Op::Advance { delta_ms }),
    ]
}

fn ms_spec(ms: u64) -> TimeSpec {
    // Decompose a duration into the calendar fields `as_duration_ms`
    // sums back up, keeping each field in its natural range.
    TimeSpec {
        yr: None,
        mo: None,
        day: None,
        hr: Some(((ms / calendar::HR) % 1_000) as u32),
        min: Some(((ms / calendar::MIN) % 60) as u32),
        sec: Some(((ms / calendar::SEC) % 60) as u32),
        ms: Some((ms % 1_000) as u32),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn wheel_matches_naive_scan(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut wheel = Clock::default();
        let mut naive = NaiveClock::default();
        for op in &ops {
            match op {
                Op::After { object, trigger, delay_ms } => {
                    let ev = TimeEvent::After(ms_spec(*delay_ms));
                    let anchor = wheel.now();
                    let a = wheel.schedule_event(ObjectId(*object), TimerScope::Trigger(*trigger), &ev, anchor);
                    let b = naive.schedule_event(ObjectId(*object), TimerScope::Trigger(*trigger), &ev, anchor);
                    prop_assert_eq!(a, b);
                }
                Op::Every { object, trigger, period_ms } => {
                    let ev = TimeEvent::Every(ms_spec(*period_ms));
                    let anchor = wheel.now();
                    let a = wheel.schedule_event(ObjectId(*object), TimerScope::Trigger(*trigger), &ev, anchor);
                    let b = naive.schedule_event(ObjectId(*object), TimerScope::Trigger(*trigger), &ev, anchor);
                    prop_assert_eq!(a, b);
                }
                Op::At { object, hr, min } => {
                    let spec = TimeSpec { hr: Some(*hr), min: Some(*min), ..Default::default() };
                    let ev = TimeEvent::At(spec);
                    let anchor = wheel.now();
                    let a = wheel.schedule_event(ObjectId(*object), TimerScope::Object, &ev, anchor);
                    let b = naive.schedule_event(ObjectId(*object), TimerScope::Object, &ev, anchor);
                    prop_assert_eq!(a, b);
                }
                Op::Cancel { object } => {
                    wheel.cancel_object(ObjectId(*object));
                    naive.cancel_object(ObjectId(*object));
                }
                Op::Advance { delta_ms } => {
                    let target = wheel.now() + delta_ms;
                    let a = wheel.advance_to(target);
                    let b = naive.advance_to(target);
                    prop_assert_eq!(&a, &b, "divergent firings advancing to {}", target);
                }
            }
            prop_assert_eq!(wheel.now(), naive.now);
            prop_assert_eq!(wheel.pending(), naive.entries.len());
        }
        // Terminal structural check: identical pending sets in
        // identical order, and identical behavior from here on out
        // (the horizon flushes every one-shot: delays cap at 500s).
        prop_assert_eq!(wheel.export_timers(), naive.export());
        let horizon = wheel.now() + 1_200_000;
        prop_assert_eq!(wheel.advance_to(horizon), naive.advance_to(horizon));
        prop_assert_eq!(wheel.pending(), naive.entries.len());
    }
}

/// Multi-year leaps cross the wheel's upper levels (level 5 covers
/// ~12 days per slot, level 6 ~2.2 years) in one `advance-clock`.
/// Only one-shots and daily calendar patterns are armed, so the
/// replayed firing count stays small even across a 3-year jump.
#[test]
fn huge_leaps_match_naive() {
    let mut wheel = Clock::default();
    let mut naive = NaiveClock::default();
    let arm = |wheel: &mut Clock, naive: &mut NaiveClock, object: u64, ev: &TimeEvent| {
        let anchor = wheel.now();
        let a = wheel.schedule_event(ObjectId(object), TimerScope::Object, ev, anchor);
        let b = naive.schedule_event(ObjectId(object), TimerScope::Object, ev, anchor);
        assert_eq!(a, b, "arming parity for {ev:?}");
    };
    // One-shots due at wildly different levels, plus two daily
    // calendar patterns that re-arm across the whole horizon.
    for (object, delay) in [
        (1, 50),
        (2, 90_000),
        (3, 3 * calendar::DAY),
        (4, 40 * calendar::DAY),
        (5, 2 * calendar::YR),
    ] {
        arm(
            &mut wheel,
            &mut naive,
            object,
            &TimeEvent::After(ms_spec(delay)),
        );
    }
    for (object, hr, min) in [(6, 0, 30), (7, 23, 59)] {
        let spec = TimeSpec {
            hr: Some(hr),
            min: Some(min),
            ..Default::default()
        };
        arm(&mut wheel, &mut naive, object, &TimeEvent::At(spec));
    }
    for delta in [
        1,
        calendar::DAY + 1,
        30 * calendar::DAY,
        calendar::YR,
        3 * calendar::YR,
    ] {
        let target = wheel.now() + delta;
        assert_eq!(
            wheel.advance_to(target),
            naive.advance_to(target),
            "divergent firings leaping to {target}"
        );
        assert_eq!(wheel.now(), naive.now);
        assert_eq!(wheel.pending(), naive.entries.len());
    }
    assert_eq!(wheel.export_timers(), naive.export());
}

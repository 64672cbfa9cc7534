//! The unified fault-injection plan (DESIGN.md §13.4): one declarative
//! description of *what goes wrong when*, consumed by every harness that
//! injects faults — the crash-injection tests, the soak binary's
//! randomized fault rounds, and the §11 explorer scenarios — and
//! rendered as a replayable one-line text artifact.
//!
//! The plan generalizes the original single-knob
//! `arm_crash_after_writes(n)` (which survives as a compat wrapper on
//! [`ShmHandle`](crate::ShmHandle)):
//!
//! * **kill** — `SIGKILL` self after exactly N shared protocol writes
//!   (0 = before the first), the crash-injection countdown;
//! * **delay** — sleep `delay_micros` before every `delay_period`-th
//!   shared write, widening the crash windows so races that need a slow
//!   writer actually happen;
//! * **refuse** — report the first N operations as full/empty without
//!   touching shared state, exercising callers' refusal paths (the
//!   soak's retry loops, timed-wait retries);
//! * **drop_wakes** — a *driver-side* fault: the harness running the
//!   plan withholds its wake notifications, so only deadline-carrying
//!   waiters make progress. The handle ignores it; drivers honor it.
//!
//! ## The artifact
//!
//! `render` produces `plan:v1:kill=..,delayp=..,delayus=..,refuse=..,dropw=..,seed=..`
//! and `parse` round-trips it, so a failing soak round prints one line
//! that replays the exact fault schedule (the same contract as the
//! explorer's `sched:v1:` artifacts).

use std::fmt;
use std::str::FromStr;

/// A declarative fault schedule. `Default` is the no-fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// `Some(n)`: `SIGKILL` self after `n` shared protocol writes.
    pub kill_after: Option<u64>,
    /// Sleep before every `delay_period`-th shared write (0 = never).
    pub delay_period: u64,
    /// How long each injected delay sleeps, in microseconds.
    pub delay_micros: u64,
    /// Report the first `refuse_first` operations full/empty without
    /// touching shared state.
    pub refuse_first: u64,
    /// Driver-side: withhold wake notifications while running the plan.
    pub drop_wakes: bool,
    /// The seed this plan was derived from (0 = hand-written); carried in
    /// the artifact so a replay can also re-derive sibling plans.
    pub seed: u64,
}

impl FaultPlan {
    /// Derive a randomized plan from a seed (splitmix64 over the seed, so
    /// equal seeds give equal plans on every platform). Used by the soak
    /// binary's fault rounds; kills are bounded to land inside a typical
    /// round's write budget.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut s = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let kill_after = match next() % 4 {
            0 => None, // a quarter of rounds run fault-free as control
            _ => Some(next() % 64),
        };
        FaultPlan {
            kill_after,
            delay_period: next() % 8, // 0 disables delays
            delay_micros: 1 + next() % 50,
            refuse_first: next() % 4,
            drop_wakes: next() % 4 == 0,
            seed,
        }
    }

    /// The replayable one-line artifact for this plan.
    pub fn render(&self) -> String {
        format!(
            "plan:v1:kill={},delayp={},delayus={},refuse={},dropw={},seed={}",
            self.kill_after.map_or(-1i64, |n| n as i64),
            self.delay_period,
            self.delay_micros,
            self.refuse_first,
            u64::from(self.drop_wakes),
            self.seed,
        )
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A `plan:v1:` artifact failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadPlan(String);

impl fmt::Display for BadPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault plan artifact: {}", self.0)
    }
}

impl std::error::Error for BadPlan {}

impl FromStr for FaultPlan {
    type Err = BadPlan;

    fn from_str(s: &str) -> Result<FaultPlan, BadPlan> {
        let body = s
            .strip_prefix("plan:v1:")
            .ok_or_else(|| BadPlan(format!("missing plan:v1: prefix in {s:?}")))?;
        let mut plan = FaultPlan::default();
        for field in body.split(',') {
            let (key, val) = field
                .split_once('=')
                .ok_or_else(|| BadPlan(format!("field {field:?} has no '='")))?;
            let num = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| BadPlan(format!("field {key}={v:?} is not a number")))
            };
            match key {
                // kill=-1 is the "no kill" sentinel; anything else is a
                // plain write count.
                "kill" if val == "-1" => plan.kill_after = None,
                "kill" => plan.kill_after = Some(num(val)?),
                "delayp" => plan.delay_period = num(val)?,
                "delayus" => plan.delay_micros = num(val)?,
                "refuse" => plan.refuse_first = num(val)?,
                "dropw" => plan.drop_wakes = num(val)? != 0,
                "seed" => plan.seed = num(val)?,
                _ => return Err(BadPlan(format!("unknown field {key:?}"))),
            }
        }
        Ok(plan)
    }
}

/// The per-handle execution state of a plan: countdowns consumed as the
/// protocol writes go by. Lives inside [`ShmHandle`](crate::ShmHandle).
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    kill_after: Option<u64>,
    delay_period: u64,
    delay_micros: u64,
    refuse_left: u64,
    writes_seen: u64,
}

impl FaultState {
    pub(crate) fn apply(&mut self, plan: &FaultPlan) {
        self.kill_after = plan.kill_after;
        self.delay_period = plan.delay_period;
        self.delay_micros = plan.delay_micros;
        self.refuse_left = plan.refuse_first;
        self.writes_seen = 0;
    }

    pub(crate) fn arm_kill(&mut self, n: u64) {
        self.kill_after = Some(n);
    }

    /// Consume one forced refusal, if any are budgeted. Called at
    /// operation entry, before any shared access.
    pub(crate) fn take_refusal(&mut self) -> bool {
        if self.refuse_left > 0 {
            self.refuse_left -= 1;
            true
        } else {
            false
        }
    }

    /// The write gate: fired once on operation entry and once after each
    /// shared protocol write. Injects the scheduled delay, then the kill.
    #[inline]
    pub(crate) fn gate(&mut self) {
        if self.kill_after.is_none() && self.delay_period == 0 {
            return; // no plan armed: stay off the hot path
        }
        self.writes_seen += 1;
        if self.delay_period > 0 && self.writes_seen.is_multiple_of(self.delay_period) {
            // Widen the crash window: nanosleep is allocation-free, so
            // this is safe inside forked children too.
            let ts = libc::timespec {
                tv_sec: 0,
                tv_nsec: (self.delay_micros as i64) * 1_000,
            };
            // SAFETY: valid timespec; EINTR just shortens the delay.
            unsafe {
                libc::nanosleep(&ts, std::ptr::null_mut());
            }
        }
        if let Some(left) = self.kill_after.as_mut() {
            if *left == 0 {
                // SAFETY: killing ourselves with SIGKILL has no
                // preconditions; the process ends here.
                unsafe {
                    libc::kill(libc::getpid(), libc::SIGKILL);
                }
                unreachable!("survived SIGKILL to self");
            }
            *left -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_round_trips_exactly() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let plan = FaultPlan::from_seed(seed);
            let line = plan.render();
            assert_eq!(line.parse::<FaultPlan>().unwrap(), plan, "{line}");
        }
        // The no-kill case renders kill=-1 and parses back to None.
        let calm = FaultPlan::default();
        assert!(calm.render().contains("kill=-1"));
        assert_eq!(calm.render().parse::<FaultPlan>().unwrap(), calm);
    }

    #[test]
    fn equal_seeds_give_equal_plans() {
        assert_eq!(FaultPlan::from_seed(7), FaultPlan::from_seed(7));
        // And the derivation actually varies across seeds.
        let distinct: std::collections::HashSet<String> =
            (0..32).map(|s| FaultPlan::from_seed(s).render()).collect();
        assert!(distinct.len() > 16, "seeds must diversify the plans");
    }

    #[test]
    fn malformed_artifacts_are_rejected() {
        for bad in [
            "plan:v2:kill=1",
            "kill=1",
            "plan:v1:kill",
            "plan:v1:kill=x",
            "plan:v1:unknown=3",
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn refusals_are_consumed_then_exhausted() {
        let mut st = FaultState::default();
        st.apply(&FaultPlan {
            refuse_first: 2,
            ..FaultPlan::default()
        });
        assert!(st.take_refusal());
        assert!(st.take_refusal());
        assert!(!st.take_refusal(), "budget spent: operations proceed");
    }
}

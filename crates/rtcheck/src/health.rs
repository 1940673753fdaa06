//! One kernel's health word: the circuit breaker over its parallel
//! path, and the only "serial for the next N" in the system.
//!
//! A kernel whose parallel variant keeps faulting should stop paying the
//! fault-recovery cost (reset + serial rerun) on every invocation: after
//! [`FAULT_THRESHOLD`] consecutive faults the breaker *opens* and the
//! kernel is pinned to the serial path for [`COOLDOWN`] denied
//! admissions *of that kernel* — the one cooldown clock there is, so
//! behaviour is deterministic under test and in the chaos harness. Then
//! it goes *half-open* and admits every caller until the first outcome:
//! a clean parallel run closes it, a fault re-opens it.
//!
//! ```text
//!           fault ×3                    8 denials
//!  Closed ───────────────────▶ Open ─────────────────────▶ HalfOpen
//!    ▲                          ▲                             │  │
//!    │          fault           └─────────────────────────────┘  │
//!    └───────────────────────────────────────────────────────────┘
//!                            success
//! ```
//!
//! Every [`crate::GuardedExecutor`] owns one; a healthy invocation loads
//! the word twice and writes nothing.

use self::BreakerState::{Closed, HalfOpen, Open};
use std::sync::atomic::{AtomicU32, Ordering};

/// Consecutive parallel-path faults that open the breaker: one faulting
/// invocation plus its failed retry, with one to spare.
pub const FAULT_THRESHOLD: u32 = 3;
/// Admissions denied while open before the half-open trial.
pub const COOLDOWN: u32 = 8;

/// A kernel's breaker position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Parallel admitted; `faults` consecutive faults recorded so far.
    Closed {
        /// Consecutive parallel-path faults since the last success.
        faults: u32,
    },
    /// Parallel denied; `remaining` more denials before a trial.
    Open {
        /// Admission attempts left to deny before going half-open.
        remaining: u32,
    },
    /// Trial admissions are in flight; the first outcome decides.
    HalfOpen,
}

const REOPENED: BreakerState = Open {
    remaining: COOLDOWN,
};

/// One kernel's [`BreakerState`] in an atomic word: `count << 2 | tag`,
/// zero being `Closed { faults: 0 }`.
#[derive(Debug, Default)]
pub struct Health(AtomicU32);

fn encode(state: BreakerState) -> u32 {
    match state {
        Closed { faults } => faults << 2,
        Open { remaining } => remaining << 2 | 1,
        HalfOpen => 2,
    }
}

fn decode(word: u32) -> BreakerState {
    match word & 3 {
        0 => Closed { faults: word >> 2 },
        1 => Open {
            remaining: word >> 2,
        },
        _ => HalfOpen,
    }
}

impl Health {
    /// Moves the state by `step`; returns it before and after. A step
    /// that moves nothing (both of a healthy invocation's) is one load.
    fn update(&self, step: impl Fn(BreakerState) -> BreakerState) -> (BreakerState, BreakerState) {
        let moved = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |word| {
                let next = encode(step(decode(word)));
                (next != word).then_some(next)
            });
        match moved {
            Ok(before) => (decode(before), step(decode(before))),
            Err(unmoved) => (decode(unmoved), decode(unmoved)),
        }
    }

    /// Asks to run on the parallel path. `Err(remaining)` denies,
    /// reporting how many further denials precede the half-open trial
    /// (`Err(0)`: this denial armed it).
    pub fn admit(&self) -> Result<(), u32> {
        let (before, after) = self.update(|state| match state {
            Open { remaining } if remaining <= 1 => HalfOpen,
            Open { remaining } => Open {
                remaining: remaining - 1,
            },
            admitted => admitted,
        });
        match (before, after) {
            (Open { .. }, Open { remaining }) => Err(remaining),
            (Open { .. }, _) => Err(0),
            _ => Ok(()),
        }
    }

    /// Records a parallel-path fault. Returns `true` when this fault is
    /// the one that opened the breaker: the third in a row, or a faulted
    /// trial. While open (a racing invocation's fault) the cooldown keeps
    /// counting down from where it is.
    pub fn record_fault(&self) -> bool {
        let (before, after) = self.update(|state| match state {
            Closed { faults } if faults + 1 < FAULT_THRESHOLD => Closed { faults: faults + 1 },
            Closed { .. } | HalfOpen => REOPENED,
            Open { .. } => state,
        });
        after == REOPENED && before != after
    }

    /// Records a clean parallel run: closes the breaker and clears the
    /// consecutive-fault count. Returns `true` when there was anything
    /// to clear.
    pub fn record_success(&self) -> bool {
        let (before, after) = self.update(|_| Closed { faults: 0 });
        before != after
    }

    /// The current position.
    pub fn state(&self) -> BreakerState {
        decode(self.0.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `(state, admit | fault | success)` → `(next, answer)` of
    /// DESIGN.md §5c, through the atomic word, so the encoding is held
    /// to the table as well.
    #[test]
    fn every_state_and_event_follows_the_table() {
        let pristine = Closed { faults: 0 };
        let reopened = Open { remaining: 8 };
        // state; admit → (next, admitted?); fault → (next, opened?);
        // success → Closed{0} from everywhere.
        let mut table = vec![
            (pristine, (pristine, Ok(())), (Closed { faults: 1 }, false)),
            (
                Closed { faults: 1 },
                (Closed { faults: 1 }, Ok(())),
                (Closed { faults: 2 }, false),
            ),
            (
                Closed { faults: 2 },
                (Closed { faults: 2 }, Ok(())),
                (reopened, true),
            ),
            (HalfOpen, (HalfOpen, Ok(())), (reopened, true)),
            (
                Open { remaining: 1 },
                (HalfOpen, Err(0)),
                (Open { remaining: 1 }, false),
            ),
        ];
        for remaining in 2..=8 {
            let (open, next) = (
                Open { remaining },
                Open {
                    remaining: remaining - 1,
                },
            );
            table.push((open, (next, Err(remaining - 1)), (open, false)));
        }
        assert_eq!(table.len(), 12, "3 closed + 8 open + half-open");
        let word = |state: BreakerState| {
            let word = Health(AtomicU32::new(encode(state)));
            assert_eq!(word.state(), state, "encoding round trip");
            word
        };
        for (state, (admit_next, admitted), (fault_next, opened)) in table {
            let w = word(state);
            assert_eq!((w.admit(), w.state()), (admitted, admit_next), "{state:?}");
            let w = word(state);
            assert_eq!(
                (w.record_fault(), w.state()),
                (opened, fault_next),
                "{state:?}"
            );
            let w = word(state);
            assert_eq!(
                (w.record_success(), w.state()),
                (state != pristine, pristine),
                "{state:?}"
            );
        }
    }
}

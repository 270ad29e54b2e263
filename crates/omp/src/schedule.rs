//! The worksharing loop schedule (the `schedule(...)` clause).
//!
//! The paper uses `schedule(dynamic,1)` for both hybrid algorithms and notes
//! (§4.3) that static scheduling performed equivalently for the collapsed
//! loop, so dynamic is the one schedule this runtime carries.

/// How a worksharing loop's iterations are distributed over the team.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// `schedule(dynamic, chunk)`; the paper uses chunk = 1. Thread `t` of
    /// `T` takes chunks of its contiguous home range `[t·n/T, (t+1)·n/T)`
    /// from its own counter, then steals chunks from teammates' ranges
    /// once its own is spent, so every index still goes out exactly once,
    /// `chunk` at a time.
    Dynamic { chunk: usize },
}

impl Schedule {
    /// The paper's default for the inner ERI loops.
    pub fn dynamic1() -> Schedule {
        Schedule::Dynamic { chunk: 1 }
    }
}

//! The single place the benchmark reads the wall clock.
//!
//! Everything the harness times is a difference of two [`Clock::ns`]
//! reads taken *outside* the simulation, around calls into public
//! functions; no reading ever reaches simulation state.

// detlint: allow(R1) -- benchmark harness, outside the simulation
use std::time::Instant;

/// Nanoseconds since the clock was started (process start, in practice).
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    // detlint: allow(R1) -- benchmark harness, outside the simulation
    t0: Instant,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            // detlint: allow(R1) -- benchmark harness, outside the simulation
            t0: Instant::now(),
        }
    }

    pub fn ns(&self) -> u64 {
        // detlint: allow(R1) -- benchmark harness, outside the simulation
        self.t0.elapsed().as_nanos() as u64
    }
}

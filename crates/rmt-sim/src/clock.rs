//! Simulated time.
//!
//! All hardware-side delays in the reproduction (control-channel writes,
//! reprovisioning, link serialization, recirculation) advance a
//! deterministic simulated clock instead of wall time, so experiment output
//! is bit-for-bit reproducible. Wall time is only used where the paper
//! measures real computation (the allocation solver).

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// `ZERO`.
    pub const ZERO: Nanos = Nanos(0);

    /// From micros.
    pub fn from_micros(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    /// From millis.
    pub fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// From secs.
    pub fn from_secs(s: u64) -> Nanos {
        Nanos(s * 1_000_000_000)
    }

    /// Fractional seconds, handy for building time series.
    pub fn from_secs_f64(s: f64) -> Nanos {
        Nanos((s * 1e9).round() as u64)
    }

    /// As micros f64.
    pub(crate) fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// As millis f64.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As secs f64.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A monotonically advancing simulated clock.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Nanos,
}

impl SimClock {
    /// Construct with defaults appropriate to the type.
    pub(crate) fn new() -> SimClock {
        SimClock { now: Nanos::ZERO }
    }

    /// Now.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Advance.
    pub fn advance(&mut self, by: Nanos) {
        self.now += by;
    }
}

/// A link or port bandwidth. Stored as bits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(pub f64);

impl Bandwidth {
    /// From gbps.
    pub(crate) fn from_gbps(g: f64) -> Bandwidth {
        Bandwidth(g * 1e9)
    }

    /// From mbps.
    pub fn from_mbps(m: f64) -> Bandwidth {
        Bandwidth(m * 1e6)
    }

    /// Time to serialize `bytes` onto this link.
    pub fn serialize(self, bytes: usize) -> Nanos {
        Nanos(((bytes as f64 * 8.0) / self.0 * 1e9).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Nanos::from_micros(3), Nanos(3_000));
        assert_eq!(Nanos::from_millis(2), Nanos(2_000_000));
        assert_eq!(Nanos::from_secs(1), Nanos(1_000_000_000));
        assert_eq!(Nanos::from_secs_f64(0.5), Nanos(500_000_000));
        assert!((Nanos(1_500_000).as_millis_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn serialization_time() {
        // 1500 bytes at 100 Gbps = 120 ns.
        let t = Bandwidth::from_gbps(100.0).serialize(1500);
        assert_eq!(t, Nanos(120));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Nanos(12).to_string(), "12ns");
        assert_eq!(Nanos(12_000).to_string(), "12.000us");
        assert_eq!(Nanos(12_000_000).to_string(), "12.000ms");
        assert_eq!(Nanos(2_500_000_000).to_string(), "2.500s");
    }
}

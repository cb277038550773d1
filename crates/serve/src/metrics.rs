//! Latency histograms and the `metrics` verb's canonical rendering.
//!
//! A multi-tenant daemon needs one cheap, machine-readable answer to
//! "how is the server doing": the `metrics` verb returns a single-line
//! JSON object with live queue depth and in-flight ledger size, batch
//! occupancy, per-client registration counts, the cache's counters and
//! hit rate, the chaos fault counters (all zero when no plan is armed)
//! and per-phase latency percentiles (p50/p95/p99) for the three phases
//! a request passes through:
//!
//! * **queue_wait** — submission → the drainer takes it for execution;
//! * **execute** — the compile itself (cache hits included);
//! * **total** — submission → its response line is written.
//!
//! Latencies are recorded into fixed power-of-two microsecond buckets
//! ([`LatencyHistogram`]): recording is one relaxed atomic increment, so
//! the hot path never takes a lock, and percentiles are reported as the
//! upper bound of the covering bucket — coarse, monotone, and cheap.
//! Everything else in the rendering is a deterministic counter, so a
//! golden test can pin the exact shape of the object (with the
//! free-running numbers masked).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets: bucket `i` covers `[2^i, 2^(i+1))`
/// microseconds (bucket 0 also absorbs sub-microsecond samples), so the
/// top bucket is saturated at ~2^39 µs ≈ 6 days — far past any deadline.
const BUCKETS: usize = 40;

/// A fixed-bucket log2 latency histogram (microsecond resolution).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl LatencyHistogram {
    /// Record one sample given in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let us = ns / 1_000;
        let idx = if us <= 1 { 0 } else { (us.ilog2() as usize).min(BUCKETS - 1) };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `p`-th percentile (nearest-rank over buckets), reported as
    /// the covering bucket's upper bound in microseconds; 0 when empty.
    pub fn percentile_us(&self, p: f64) -> u64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << BUCKETS
    }

    /// Render the histogram's summary as a JSON object fragment.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
            self.count(),
            self.percentile_us(50.0),
            self.percentile_us(95.0),
            self.percentile_us(99.0)
        )
    }
}

/// The three per-phase histograms the batcher records into.
#[derive(Debug, Default)]
pub struct PhaseLatencies {
    /// Submission → taken off the queue for execution.
    pub queue_wait: LatencyHistogram,
    /// The compile itself (per batch entry, cache hits included).
    pub execute: LatencyHistogram,
    /// Submission → response line written.
    pub total: LatencyHistogram,
}

impl PhaseLatencies {
    /// Render the `latency` sub-object of the `metrics` verb.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"queue_wait\":{},\"execute\":{},\"total\":{}}}",
            self.queue_wait.to_json(),
            self.execute.to_json(),
            self.total.to_json()
        )
    }
}

/// Render the fault-counter section (`armed` is whether a chaos plan is
/// installed; counters are all zero when it is not).
pub fn faults_json(armed: bool, c: &crate::faults::FaultCounters) -> String {
    format!(
        "{{\"armed\":{armed},\"disk_reads\":{},\"disk_writes\":{},\"torn_writes\":{},\
         \"orphan_tmps\":{},\"compile_panics\":{},\"slow_compiles\":{},\
         \"drainer_panics\":{},\"queue_stalls\":{},\"conn_drops\":{},\"client_bursts\":{}}}",
        c.disk_reads,
        c.disk_writes,
        c.torn_writes,
        c.orphan_tmps,
        c.compile_panics,
        c.slow_compiles,
        c.drainer_panics,
        c.queue_stalls,
        c.conn_drops,
        c.client_bursts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile_us(50.0), 0);
        assert_eq!(h.to_json(), "{\"count\":0,\"p50_us\":0,\"p95_us\":0,\"p99_us\":0}");
    }

    #[test]
    fn percentiles_are_bucket_upper_bounds() {
        let h = LatencyHistogram::default();
        // 99 samples at ~3 µs (bucket [2,4) → upper bound 4), one at
        // ~1000 µs (bucket [512,1024) → upper bound 1024).
        for _ in 0..99 {
            h.record_ns(3_000);
        }
        h.record_ns(1_000_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile_us(50.0), 4);
        assert_eq!(h.percentile_us(95.0), 4);
        assert_eq!(h.percentile_us(99.0), 4);
        assert_eq!(h.percentile_us(100.0), 1024);
    }

    #[test]
    fn sub_microsecond_samples_land_in_bucket_zero() {
        let h = LatencyHistogram::default();
        h.record_ns(10);
        h.record_ns(999);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile_us(99.0), 2, "bucket 0's upper bound");
    }

    #[test]
    fn monotone_in_p() {
        let h = LatencyHistogram::default();
        for i in 0..1000u64 {
            h.record_ns(i * 10_000);
        }
        let (a, b, c) = (h.percentile_us(50.0), h.percentile_us(95.0), h.percentile_us(99.0));
        assert!(a <= b && b <= c, "{a} {b} {c}");
    }
}

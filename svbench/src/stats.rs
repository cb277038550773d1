//! Order statistics and the open-loop latency rules.

/// Latency charged to a request that failed or was refused: it misses
/// every latency limit (one hour, far past any limit the benchmark sets).
pub const MISSED_MS: f64 = 3_600_000.0;

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` percent of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The sample in ascending order.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Nearest-rank median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs.to_vec()), 50.0)
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(xs, n=4)` (exclusive), which is how run-to-run
/// spread is judged against a metric's bound.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let d = sorted(xs.to_vec());
    let m = d.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, d.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    [q(1), q(2), q(3)]
}

/// For timings taken in whole passes over the same `cases` in the same
/// order, each case's fastest time over the passes. The measured code is
/// deterministic, so every pass does the same work and a slower pass only
/// shows interference from a shared machine; a change that slows a case
/// slows its fastest pass too.
///
/// # Panics
///
/// Panics unless `samples` holds at least one whole pass and only whole
/// passes.
pub fn case_minimums(samples: &[f64], cases: usize) -> Vec<f64> {
    assert!(
        cases > 0 && !samples.is_empty() && samples.len().is_multiple_of(cases),
        "{} samples are not whole passes over {cases} cases",
        samples.len()
    );
    (0..cases)
        .map(|k| {
            samples
                .iter()
                .skip(k)
                .step_by(cases)
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Latency of each open-loop request in milliseconds, timed from when it
/// was *due* rather than when the generator got round to sending it, so a
/// sender stall is charged to every request it delayed. A request with no
/// response is charged [`MISSED_MS`].
pub fn due_latencies_ms(due_ns: &[u64], done_ns: &[Option<u64>]) -> Vec<f64> {
    due_ns
        .iter()
        .zip(done_ns)
        .map(|(&due, done)| match done {
            Some(t) => t.saturating_sub(due) as f64 / 1e6,
            None => MISSED_MS,
        })
        .collect()
}

/// One rung of the open-loop rate ladder.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: u32,
    /// p90 latency from due time, milliseconds.
    pub p90_ms: f64,
    /// Requests refused (`overloaded`) or failed.
    pub refused: u64,
}

/// The highest offered rate up to which every ladder step kept its p90
/// within `limit_ms` with no refusals; 0 when the first step already
/// missed.
pub fn max_rate(steps: &[Step], limit_ms: f64) -> u32 {
    steps
        .iter()
        .take_while(|s| s.p90_ms <= limit_ms && s.refused == 0)
        .last()
        .map_or(0, |s| s.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Nearest rank never interpolates: p50 of two is the lower one.
        assert_eq!(percentile(&[1.0, 3.0], 50.0), 1.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn case_minimums_take_each_case_across_passes() {
        // Three passes over two cases; the second pass was disturbed.
        let samples = [1.0, 12.0, 9.0, 90.0, 2.0, 11.0];
        assert_eq!(case_minimums(&samples, 2), vec![1.0, 11.0]);
        assert_eq!(case_minimums(&[4.0, 5.0], 2), vec![4.0, 5.0]);
    }

    #[test]
    fn due_time_latency_charges_a_sender_stall_to_every_delayed_request() {
        // Four requests due 1 ms apart. The sender stalls and sends all of
        // them at 3 ms; each answer arrives 0.1 ms after that. Timed from
        // the send, all four would look like 0.1 ms; timed from the due
        // time, the stall shows.
        let ms = 1_000_000u64;
        let due = [0, ms, 2 * ms, 3 * ms];
        let done = [Some(3 * ms + ms / 10); 4];
        let lat = due_latencies_ms(&due, &done);
        let want = [3.1, 2.1, 1.1, 0.1];
        for (got, want) in lat.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{lat:?}");
        }
        // An unanswered request misses every limit.
        assert_eq!(due_latencies_ms(&[0], &[None]), vec![MISSED_MS]);
    }

    #[test]
    fn max_rate_stops_at_the_first_step_with_refusals_or_a_slow_p90() {
        let step = |rate, p90_ms, refused| Step {
            rate,
            p90_ms,
            refused,
        };
        let ladder = [
            step(250, 2.0, 0),
            step(1000, 3.0, 0),
            step(4000, 4.0, 0),
            step(16000, 9.0, 37),
        ];
        assert_eq!(max_rate(&ladder, 10.0), 4000);
        // A fast p90 does not excuse refusals.
        assert_eq!(max_rate(&ladder[..3], 10.0), 4000);
        let slow = [step(250, 2.0, 0), step(1000, 12.0, 0), step(4000, 4.0, 0)];
        assert_eq!(
            max_rate(&slow, 10.0),
            250,
            "a later passing step does not count"
        );
        let refused_first = [step(250, 1.0, 1), step(1000, 1.0, 0)];
        assert_eq!(max_rate(&refused_first, 10.0), 0);
        assert_eq!(max_rate(&[], 10.0), 0);
    }
}

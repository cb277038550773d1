//! Weighted-fair admission under adversarial load.
//!
//! The property: one greedy client flooding the queue cannot starve a
//! well-behaved one. The flood client fires submissions back-to-back;
//! the trickle client keeps at most one request outstanding. With
//! per-client quotas the trickle client must complete **every** request,
//! every flood rejection must be the typed `overloaded` error (carrying
//! a positive `retry_after_ms` hint) — never a hang, never a dropped
//! response — and the trickle client's response bytes must be identical
//! at any worker count (`--jobs`), because fairness is an admission
//! property and byte-determinism is a compile property; neither may
//! perturb the other.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use sv_serve::{BatchConfig, Batcher, CompileRequest, Request, ServeError, ServeService, Sink};

/// A sink that keeps its bytes readable after the drainer writes them.
fn line_sink() -> (Arc<Mutex<Vec<u8>>>, Sink) {
    let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    (Arc::clone(&buf), buf.clone() as Sink)
}

fn lines(buf: &Arc<Mutex<Vec<u8>>>) -> Vec<String> {
    let bytes = buf.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    String::from_utf8_lossy(&bytes)
        .lines()
        .map(str::to_string)
        .collect()
}

fn compile_request(id: u64) -> Request {
    let suite = sv_workloads::benchmark("swim").expect("suite");
    Request::Compile {
        id,
        req: Box::new(CompileRequest {
            loop_text: suite.loops[(id % suite.loops.len() as u64) as usize].to_string(),
            ..CompileRequest::default()
        }),
    }
}

const FLOOD_SUBMISSIONS: u64 = 200;
const TRICKLE_SUBMISSIONS: u64 = 12;

/// Run the flood-vs-trickle scenario; returns the trickle client's
/// response lines (all of them — completion is asserted inside) plus the
/// flood client's (admitted, rejected) counts.
fn run_scenario(jobs: usize) -> (Vec<String>, u64, u64) {
    let svc = Arc::new(ServeService::in_memory());
    let cfg = BatchConfig { jobs, batch_max: 4, queue_cap: 8 };
    let b = Arc::new(Batcher::new(svc, cfg));
    // Three identities share the capacity: the permanent default client
    // plus these two, so each quota is max(1, 8/3) = 2 slots.
    let flood_id = b.register_client();
    let trickle_id = b.register_client();

    let flood_b = Arc::clone(&b);
    let flood = std::thread::spawn(move || {
        let (_buf, sink) = line_sink();
        let (mut admitted, mut rejected) = (0u64, 0u64);
        for i in 0..FLOOD_SUBMISSIONS {
            match flood_b.submit_for(flood_id, compile_request(i), Arc::clone(&sink)) {
                Ok(()) => admitted += 1,
                Err(ServeError::Overloaded { cap, retry_after_ms }) => {
                    assert!(cap <= 8, "quota rejection must report the quota, got {cap}");
                    assert!(retry_after_ms > 0, "rejection must carry a backoff hint");
                    rejected += 1;
                }
                Err(other) => panic!("flood rejection must be typed overloaded, got {other}"),
            }
        }
        (admitted, rejected)
    });

    let trickle_b = Arc::clone(&b);
    let trickle = std::thread::spawn(move || {
        let (buf, sink) = line_sink();
        for i in 0..TRICKLE_SUBMISSIONS {
            // At most one outstanding request: a client inside its quota
            // must never be turned away, however hard the flood pushes.
            trickle_b
                .submit_for(trickle_id, compile_request(1_000 + i), Arc::clone(&sink))
                .unwrap_or_else(|e| panic!("trickle request {i} rejected: {e}"));
            let deadline = Instant::now() + Duration::from_secs(30);
            while (lines(&buf).len() as u64) <= i {
                assert!(Instant::now() < deadline, "trickle response {i} never arrived");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        lines(&buf)
    });

    let (admitted, rejected) = flood.join().expect("flood client");
    let trickle_lines = trickle.join().expect("trickle client");
    // Only the flood is ever turned away, and the queue counts each time.
    assert_eq!(b.stats().rejected, rejected, "every overloaded rejection is counted");
    b.close();
    Arc::try_unwrap(b).ok().expect("sole owner").join().expect("drain");
    (trickle_lines, admitted, rejected)
}

#[test]
fn flood_cannot_starve_the_trickle_client() {
    let (trickle_lines, admitted, rejected) = run_scenario(2);
    assert_eq!(trickle_lines.len() as u64, TRICKLE_SUBMISSIONS, "every trickle request answered");
    for (i, line) in trickle_lines.iter().enumerate() {
        assert!(line.contains("\"ok\":true"), "trickle response {i} failed: {line}");
        assert!(
            line.contains(&format!("\"id\":{}", 1_000 + i as u64)),
            "trickle responses must arrive in submission order: {line}"
        );
    }
    assert!(admitted > 0, "some flood traffic fits inside its quota");
    assert!(
        rejected > 0,
        "a 200-deep back-to-back flood against a 2-slot quota must see rejections"
    );
    assert_eq!(admitted + rejected, FLOOD_SUBMISSIONS);
}

#[test]
fn trickle_bytes_are_jobs_invariant() {
    let (at_one_job, _, _) = run_scenario(1);
    let (at_four_jobs, _, _) = run_scenario(4);
    assert_eq!(
        at_one_job, at_four_jobs,
        "fairness must not perturb byte-determinism across --jobs"
    );
}

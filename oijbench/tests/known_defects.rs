//! Known defects of the program, pinned as they show in the benchmark:
//! each is measured as a structured failure that counts toward
//! `failed_ratio`, never as a panic of the benchmark.

use std::time::Duration as StdDuration;

use oij_common::{AggSpec, Duration, EmitMode, Error, OijQuery};
use oij_core::{EngineConfig, EngineKind, Sink};
use oij_workload::{KeyDist, SyntheticConfig};
use oijbench::drive::{bases, engine_pass};
use oijbench::legs::Leg;
use oijbench::report::{Report, Tracer};
use oijbench::workload::Workload;

/// `KeyOij::finish` joins each worker within `send_timeout` (1 s). A
/// healthy joiner still draining more than a second of queued backlog
/// is killed and the run reported as `WorkerStalled`. Shape: 16 Zipf
/// keys, 50 ms window, 1 ms lateness, batch 64, closed loop. Every push
/// succeeds; `finish` fails.
#[test]
fn keyoij_finish_stall_is_counted_as_a_failure() {
    let events = SyntheticConfig {
        tuples: 400_000,
        unique_keys: 16,
        key_dist: KeyDist::Zipf { exponent: 1.0 },
        probe_fraction: 0.5,
        spacing: Duration::from_micros(1),
        disorder: Duration::from_millis(1),
        payload_bytes: 0,
        seed: 7,
    }
    .generate();
    let query = OijQuery::builder()
        .preceding(Duration::from_millis(50))
        .lateness(Duration::from_millis(1))
        .agg(AggSpec::Sum)
        .emit(EmitMode::Watermark)
        .build()
        .unwrap();
    let cfg = EngineConfig::new(query, 1).unwrap().with_batch_size(64);
    assert_eq!(cfg.send_timeout, StdDuration::from_secs(1));
    let b = bases(&events);

    let pass = engine_pass(
        EngineKind::KeyOij,
        cfg,
        Sink::null(),
        events,
        0,
        &mut Tracer::new(false),
        None,
    );
    assert!(
        pass.finish_s > 0.0,
        "every push must succeed: {:?}",
        pass.outcome
    );
    assert!(
        matches!(
            pass.outcome,
            Err(Error::WorkerStalled {
                engine: "key-oij",
                ..
            })
        ),
        "expected finish to report the healthy joiner as stalled, got {:?}",
        pass.outcome.as_ref().map(|s| s.results)
    );

    let scratch = std::env::temp_dir();
    let mut leg = Leg {
        workload: Workload::ScanBound,
        seed: 7,
        round: 0,
        budget: StdDuration::ZERO,
        trace: false,
        scratch: &scratch,
        tracer: Tracer::new(false),
        report: Report::default(),
    };
    assert!(leg
        .account_engine("key-oij 50 ms", b, &pass.outcome)
        .is_none());
    assert_eq!(leg.report.attempted, b);
    assert_eq!(
        leg.report.failed, b,
        "every base tuple of the failed pass counts as failed"
    );
    assert!(
        leg.report.errors[0].contains("stalled"),
        "{:?}",
        leg.report.errors
    );
}

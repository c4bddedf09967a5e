//! The three workloads: what each one generates, which query it runs,
//! and at which fixed rate its open-loop leg is offered.
//!
//! Every stream comes from `oij_workload::SyntheticConfig` seeded by the
//! benchmark's `--seed`; the program under test only ever sees the
//! generated events.

use oij_common::{AggSpec, Duration, EmitMode, Event, OijQuery};
use oij_workload::{KeyDist, SyntheticConfig};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Routing, batching, the channel hop and index insert dominate.
    RouteBound,
    /// Window scans, Subtract-on-Evict, eviction and late inserts dominate.
    ScanBound,
    /// The route-bound shape with the write-ahead log on, crashed and
    /// recovered.
    DurableRecover,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::RouteBound,
        Workload::ScanBound,
        Workload::DurableRecover,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RouteBound => "route-bound",
            Workload::ScanBound => "scan-bound",
            Workload::DurableRecover => "durable-recover",
        }
    }

    /// Parses a [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The stream shape at `tuples` events, seeded by `seed`.
    pub fn stream(self, tuples: usize, seed: u64) -> SyntheticConfig {
        let (unique_keys, key_dist, probe_fraction, disorder_us) = match self {
            Workload::RouteBound => (64, KeyDist::Uniform, 0.8, 0),
            Workload::ScanBound => (16, KeyDist::Zipf { exponent: 1.0 }, 0.5, 1_000),
            Workload::DurableRecover => (64, KeyDist::Uniform, 0.8, 50),
        };
        SyntheticConfig {
            tuples,
            unique_keys,
            key_dist,
            probe_fraction,
            spacing: Duration::from_micros(1),
            disorder: Duration::from_micros(disorder_us),
            payload_bytes: 0,
            // Distinct streams per workload even under the same seed.
            seed: seed ^ (0x0B1E_0000 + self as u64),
        }
    }

    /// Generates the closed-loop stream of one pass.
    pub fn events(self, seed: u64) -> Vec<Event> {
        self.stream(self.pass_tuples(), seed).generate()
    }

    /// Events per closed-loop pass.
    pub fn pass_tuples(self) -> usize {
        match self {
            Workload::RouteBound => 400_000,
            Workload::ScanBound => 200_000,
            Workload::DurableRecover => 150_000,
        }
    }

    /// The fixed offered rate of the open-loop leg, tuples per second.
    /// Well below each workload's closed-loop throughput on a 2-core host;
    /// never recalibrated.
    pub fn offered_rate(self) -> f64 {
        match self {
            Workload::RouteBound => 400_000.0,
            Workload::ScanBound => 200_000.0,
            Workload::DurableRecover => 100_000.0,
        }
    }

    /// The workload's query.
    pub fn query(self) -> OijQuery {
        match self {
            Workload::RouteBound => query(100, 0, AggSpec::Sum, EmitMode::Eager),
            Workload::ScanBound => query(10_000, 1_000, AggSpec::Sum, EmitMode::Watermark),
            Workload::DurableRecover => query(1_000, 50, AggSpec::Sum, EmitMode::Watermark),
        }
    }

    /// The SQL script the serving tier registers: the workload's own
    /// query as one plan (served eagerly).
    pub fn serve_script(self) -> String {
        let window = self.query().window;
        let lateness = match window.lateness.as_micros() {
            0 => String::new(),
            us => format!(" LATENESS {us}us"),
        };
        format!(
            "-- name: solo\nSELECT sum(value) OVER w FROM base WINDOW w AS (UNION probe \
             PARTITION BY key ORDER BY ts ROWS_RANGE BETWEEN {}us PRECEDING \
             AND CURRENT ROW{lateness})",
            window.preceding.as_micros()
        )
    }
}

/// Routing batch size of every workload's primary engine path.
pub const BATCH: usize = 64;

fn query(preceding_us: i64, lateness_us: i64, agg: AggSpec, emit: EmitMode) -> OijQuery {
    OijQuery::builder()
        .preceding(Duration::from_micros(preceding_us))
        .lateness(Duration::from_micros(lateness_us))
        .agg(agg)
        .emit(emit)
        .build()
        .expect("static benchmark query")
}

/// Joiners per engine or plan: one core is left to the driving thread,
/// which is also the load generator.
pub fn joiners() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .saturating_sub(1)
        .max(1)
}

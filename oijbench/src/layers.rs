//! The traced run's single-layer measurements. Each layer is driven
//! with the workload's own stream on the leg's thread, through the
//! crate's public API: `oij-index` (every backend), `oij-cachesim`,
//! `oij-agg`, `oij-sql`, `oij-durability` and `oij-serve`.

use std::hint::black_box;
use std::time::Instant;

use oij_agg::{RunningAgg, TwoStackAgg};
use oij_cachesim::{CacheConfig, CacheSim};
use oij_common::{AggSpec, Event, OijQuery, Side, Timestamp, Tuple};
use oij_core::{EngineKind, Sink};
use oij_index::{IndexBackend, OijIndexReader, OijIndexWriter};

use crate::drive::{
    bases, crash_cycle, durability, engine_config, engine_pass, serve_pass, wal_dir,
};
use crate::legs::{crash_ordinal, serve_layer, Leg, PUSH_SAMPLE};
use crate::report::{median, Report};
use crate::workload::BATCH;

/// Events per replay block: the index and aggregation replays insert a
/// block's probe tuples, then serve its base tuples, then sweep, so each
/// kind of call is timed in bulk rather than one call at a time.
const BLOCK: usize = 256;

/// Events of the durability crash cycle.
const DURABLE_EVENTS: usize = 100_000;

/// Runs every layer measurement of the traced run.
pub fn run(leg: &mut Leg<'_>, events: &[Event]) {
    let w = leg.workload;
    let q = w.query();
    let span = leg.tracer.begin("layers.index", None);
    index(&mut leg.report, &q, events);
    leg.tracer.end(span);
    let span = leg.tracer.begin("layers.agg", None);
    agg(&mut leg.report, &q, events);
    leg.tracer.end(span);
    let span = leg.tracer.begin("layers.sql", None);
    let script = w.serve_script();
    let parses: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            black_box(oij_sql::parse_many(&script).map(|s| s.len()).unwrap_or(0));
            t.elapsed().as_secs_f64()
        })
        .collect();
    leg.report.put("sql.parse_s", median(&parses), "s");
    leg.tracer.end(span);
    durable(leg, &events[..events.len().min(DURABLE_EVENTS)]);

    // The serving tier: the workload's own query served as one plan.
    let b = bases(events);
    let mut traced = Vec::new();
    leg.repeat(3, |leg, _| {
        let parent = leg.tracer.begin("pass.served", None);
        let pass = serve_pass(w, events.to_vec(), PUSH_SAMPLE, &mut leg.tracer, parent);
        leg.tracer.end(parent);
        let before = leg.report.failed;
        leg.account_serve("served", b, &pass);
        if leg.report.failed == before {
            traced.push(pass);
        }
    });
    serve_layer(&mut leg.report, &traced);
}

/// Replays the stream through each index backend's writer and reader:
/// probe inserts, one window scan per base tuple, and an eviction sweep
/// per block. The skip list's scans also feed the LLC simulator.
fn index(report: &mut Report, q: &OijQuery, events: &[Event]) {
    let lateness = q.window.lateness.as_micros();
    let retention = q.window.probe_retention().as_micros();
    for backend in IndexBackend::ALL {
        let (mut writer, reader) = backend.build();
        let (mut insert_ns, mut inserts) = (0.0, 0u64);
        let (mut scan_ns, mut scans, mut visited) = (0.0, 0u64, 0u64);
        let (mut evict_ns, mut sweeps) = (0.0, 0u64);
        let mut max_ts = i64::MIN;
        let mut total = 0.0;
        for block in events.chunks(BLOCK) {
            let t0 = Instant::now();
            for (side, tuple) in block.iter().filter_map(Event::as_data) {
                if side == Side::Probe {
                    writer.insert(tuple.clone());
                    inserts += 1;
                }
            }
            let t1 = Instant::now();
            for (side, tuple) in block.iter().filter_map(Event::as_data) {
                max_ts = max_ts.max(tuple.ts.as_micros());
                if side == Side::Base {
                    let window = q.window.window_of(tuple.ts);
                    visited += reader.scan_window(tuple.key, window, |t| total += t.value) as u64;
                    scans += 1;
                }
            }
            let t2 = Instant::now();
            black_box(writer.evict_below(Timestamp::from_micros(max_ts - lateness - retention)));
            let t3 = Instant::now();
            insert_ns += (t1 - t0).as_nanos() as f64;
            scan_ns += (t2 - t1).as_nanos() as f64;
            evict_ns += (t3 - t2).as_nanos() as f64;
            sweeps += 1;
        }
        black_box(total);
        let label = backend.label();
        report.put(
            format!("index.insert_ns.{label}"),
            insert_ns / inserts.max(1) as f64,
            "ns",
        );
        report.put(
            format!("index.scan_ns.{label}"),
            scan_ns / scans.max(1) as f64,
            "ns",
        );
        report.put(
            format!("index.evict_ns.{label}"),
            evict_ns / sweeps.max(1) as f64,
            "ns",
        );
        if backend == IndexBackend::SkipList {
            report.put(
                "index.scan_visited",
                visited as f64 / scans.max(1) as f64,
                "tuples",
            );
        }
    }
    report.put("cachesim.miss_ratio", cache_miss_ratio(q, events), "ratio");
}

/// The skip list's window scans, address by address, through an LLC
/// model of the paper's machine.
fn cache_miss_ratio(q: &OijQuery, events: &[Event]) -> f64 {
    let (mut writer, reader) = IndexBackend::SkipList.build();
    let mut sim = CacheSim::new(CacheConfig::xeon_gold_6252_llc());
    let lateness = q.window.lateness.as_micros();
    let retention = q.window.probe_retention().as_micros();
    let mut max_ts = i64::MIN;
    for block in events.chunks(BLOCK) {
        for (side, tuple) in block.iter().filter_map(Event::as_data) {
            max_ts = max_ts.max(tuple.ts.as_micros());
            match side {
                Side::Probe => writer.insert(tuple.clone()),
                Side::Base => {
                    reader.scan_window_addr(tuple.key, q.window.window_of(tuple.ts), |_, addr| {
                        sim.access(addr, std::mem::size_of::<Tuple>());
                    });
                }
            }
        }
        writer.evict_below(Timestamp::from_micros(max_ts - lateness - retention));
    }
    sim.miss_ratio()
}

/// Per key, a sliding window of probe values kept by `RunningAgg`
/// (Subtract-on-Evict, the workload's invertible sum) and by
/// `TwoStackAgg` (Min, the non-invertible case).
fn agg(report: &mut Report, q: &OijQuery, events: &[Event]) {
    struct Series {
        ts: std::collections::VecDeque<i64>,
        values: std::collections::VecDeque<f64>,
        running: RunningAgg,
        stacks: TwoStackAgg,
    }
    let mut keys: Vec<Series> = Vec::new();
    let series = |keys: &mut Vec<Series>, key: u64| -> usize {
        let k = key as usize;
        while keys.len() <= k {
            keys.push(Series {
                ts: Default::default(),
                values: Default::default(),
                running: RunningAgg::new(AggSpec::Sum).expect("sum is invertible"),
                stacks: TwoStackAgg::new(AggSpec::Min),
            });
        }
        k
    };
    let (mut add_ns, mut adds) = (0.0, 0u64);
    let (mut evict_ns, mut evicts) = (0.0, 0u64);
    let (mut stack_ns, mut stack_ops) = (0.0, 0u64);
    let mut total = 0.0;
    for block in events.chunks(BLOCK) {
        for (side, tuple) in block.iter().filter_map(Event::as_data) {
            let k = series(&mut keys, tuple.key);
            if side == Side::Probe {
                keys[k].ts.push_back(tuple.ts.as_micros());
                keys[k].values.push_back(tuple.value);
            }
        }
        // Subtract-on-Evict: add the block's probes, then slide each
        // base tuple's window forward, evicting what fell out.
        let t0 = Instant::now();
        for (side, tuple) in block.iter().filter_map(Event::as_data) {
            if side == Side::Probe {
                keys[tuple.key as usize].running.add(tuple.value);
                adds += 1;
            }
        }
        let t1 = Instant::now();
        let mut expired = Vec::new();
        for (side, tuple) in block.iter().filter_map(Event::as_data) {
            if side == Side::Base {
                let start = q.window.window_of(tuple.ts).start.as_micros();
                let s = &mut keys[tuple.key as usize];
                while s.ts.front().is_some_and(|&t| t < start) {
                    s.ts.pop_front();
                    let v = s.values.pop_front().expect("values track timestamps");
                    s.running.evict(v);
                    expired.push((tuple.key as usize, v));
                    evicts += 1;
                }
                total += s.running.value().unwrap_or(0.0);
            }
        }
        let t2 = Instant::now();
        // The same block through the two-stack aggregator.
        for (side, tuple) in block.iter().filter_map(Event::as_data) {
            if side == Side::Probe {
                keys[tuple.key as usize].stacks.push(tuple.value);
                stack_ops += 1;
            }
        }
        for &(k, _) in &expired {
            total += keys[k].stacks.evict().unwrap_or(0.0);
            stack_ops += 1;
        }
        for (side, tuple) in block.iter().filter_map(Event::as_data) {
            if side == Side::Base {
                total += keys[tuple.key as usize].stacks.value().unwrap_or(0.0);
            }
        }
        let t3 = Instant::now();
        add_ns += (t1 - t0).as_nanos() as f64;
        evict_ns += (t2 - t1).as_nanos() as f64;
        stack_ns += (t3 - t2).as_nanos() as f64;
    }
    black_box(total);
    report.put("agg.add_ns", add_ns / adds.max(1) as f64, "ns");
    report.put("agg.evict_ns", evict_ns / evicts.max(1) as f64, "ns");
    report.put("agg.twostack_ns", stack_ns / stack_ops.max(1) as f64, "ns");
}

/// The write-ahead log on this workload's stream: one uninterrupted
/// durable pass (bytes written, checkpoints), then one crash→recover
/// cycle (log scan, replay, rows the frontier suppressed).
fn durable(leg: &mut Leg<'_>, events: &[Event]) {
    let w = leg.workload;
    let b = bases(events);
    let span = leg.tracer.begin("layers.durability", None);
    let cfg = engine_config(w, EngineKind::ScaleOij, BATCH)
        .with_durability(durability(&wal_dir(leg.scratch)));
    let pass = engine_pass(
        EngineKind::ScaleOij,
        cfg.clone(),
        Sink::null(),
        events.to_vec(),
        0,
        &mut leg.tracer,
        span,
    );
    if let Ok(stats) = &pass.outcome {
        leg.report.put(
            "durability.wal_bytes",
            stats.wal_bytes_written as f64,
            "bytes",
        );
        leg.report.put(
            "durability.checkpoints",
            stats.checkpoint_count as f64,
            "count",
        );
    }
    leg.account_engine("durable pass", b, &pass.outcome);
    let cycle = crash_cycle(
        EngineKind::ScaleOij,
        cfg,
        events,
        crash_ordinal(events),
        false,
        &mut leg.tracer,
        span,
    );
    leg.report.put("durability.scan_s", cycle.scan_s, "s");
    leg.report
        .put("durability.replayed", cycle.replayed as f64, "events");
    leg.report
        .put("durability.recover_s", cycle.recovery_s, "s");
    if let Ok(stats) = &cycle.outcome {
        leg.report.put(
            "durability.rows_deduped",
            stats.rows_deduped_on_recovery as f64,
            "rows",
        );
    }
    leg.account_engine("durable crash cycle", b, &cycle.outcome);
    leg.tracer.end(span);
}

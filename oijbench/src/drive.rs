//! Driving the crates' public API: one solo-engine pass, one paced
//! (open-loop) feed, one serving-runtime pass, one crash→recover cycle.
//!
//! Nothing here panics on an engine `Err`: every pass returns the
//! structured error alongside whatever it measured, and the caller
//! counts the pass's base tuples as failed.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration as StdDuration, Instant};

use oij_common::{EmitMode, Error, Event, FeatureRow, Side};
use oij_core::{
    recover, spawn_engine, DurabilityConfig, EngineConfig, EngineKind, FaultPlan, FsyncPolicy,
    RunStats, Sink,
};
use oij_serve::{ServeConfig, ServeRuntime, ServeSnapshot};

use crate::report::{threads_now, Tracer};
use crate::workload::{joiners, Workload};

/// Of the timed pushes, one in this many is also kept as a span.
const SPAN_EVERY: usize = 64;

/// Base tuples in a feed.
pub fn bases(events: &[Event]) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e.as_data(), Some((Side::Base, _))))
        .count() as u64
}

/// The solo-engine configuration of `workload` on `kind` at `batch`.
pub fn engine_config(workload: Workload, kind: EngineKind, batch: usize) -> EngineConfig {
    let mut cfg = EngineConfig::new(workload.query(), joiners())
        .expect("benchmark engine config is valid")
        .with_batch_size(batch);
    if kind == EngineKind::OpenMldb {
        // The baseline's only emission mode.
        cfg.query.emit = EmitMode::Eager;
    }
    cfg
}

/// A fresh, empty write-ahead-log directory under `scratch`. It is
/// created here, outside any timed set-up, as a provisioned data
/// directory would be: creating a directory is file-system work whose
/// cost swings widely between runs and is not the program's. Should it
/// fail, the engine's own attempt reports the error.
pub fn wal_dir(scratch: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = scratch.join(format!("wal-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Removes a pass's write-ahead-log directory, if it has one, when the
/// pass is over.
pub struct WalCleanup(Option<PathBuf>);

impl WalCleanup {
    /// Guards the log directory `cfg` names.
    pub fn of(cfg: &EngineConfig) -> WalCleanup {
        WalCleanup(cfg.durability.as_ref().map(|d| d.dir.clone()))
    }
}

impl Drop for WalCleanup {
    fn drop(&mut self) {
        if let Some(dir) = &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The benchmark's durability settings: never fsync (writes stop at
/// the page cache), default checkpoint cadence.
pub fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::new(dir).with_fsync(FsyncPolicy::Never)
}

/// What one solo-engine pass measured.
#[derive(Debug)]
pub struct EnginePass {
    /// Engine spawn, up to the first push.
    pub setup_s: f64,
    /// First push until `finish` returned.
    pub wall_s: f64,
    /// The `finish` call alone: the backlog drained after the last push.
    pub finish_s: f64,
    /// Sampled `push` durations, ns.
    pub push_ns: Vec<f64>,
    /// Estimated total time inside `push`, ns (sampled sum × period).
    pub push_total_ns: f64,
    /// Threads of the process once the engine was up.
    pub threads: f64,
    /// Final statistics, or the error that ended the pass.
    pub outcome: Result<RunStats, Error>,
}

/// Spawns `kind` over `cfg` and pushes `events` as fast as it accepts
/// them. Every `sample`-th push is timed (0: none) and recorded as a
/// span under `parent`. The pass's write-ahead log, if any, is removed.
pub fn engine_pass(
    kind: EngineKind,
    cfg: EngineConfig,
    sink: Sink,
    events: Vec<Event>,
    sample: usize,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> EnginePass {
    let _wal = WalCleanup::of(&cfg);
    let t0 = Instant::now();
    let spawned = spawn_engine(kind, cfg, sink);
    let ready = Instant::now();
    tracer.record("core.spawn", parent, t0, ready);
    let mut pass = EnginePass {
        setup_s: (ready - t0).as_secs_f64(),
        wall_s: 0.0,
        finish_s: 0.0,
        push_ns: Vec::new(),
        push_total_ns: 0.0,
        threads: 0.0,
        outcome: Err(Error::InvalidState("not run".into())),
    };
    let mut engine = match spawned {
        Ok(engine) => engine,
        Err(e) => {
            pass.outcome = Err(e);
            return pass;
        }
    };
    if sample > 0 {
        pass.threads = threads_now();
    }
    let start = Instant::now();
    for (i, event) in events.into_iter().enumerate() {
        let pushed = if sample > 0 && i % sample == 0 {
            let a = Instant::now();
            let r = engine.push(event);
            let b = Instant::now();
            pass.push_ns.push((b - a).as_nanos() as f64);
            if i % (sample * SPAN_EVERY) == 0 {
                tracer.record("core.push", parent, a, b);
            }
            r
        } else {
            engine.push(event)
        };
        if let Err(e) = pushed {
            let _ = engine.abort();
            pass.wall_s = start.elapsed().as_secs_f64();
            pass.outcome = Err(e);
            return pass;
        }
    }
    let f0 = Instant::now();
    let finished = engine.finish();
    let end = Instant::now();
    tracer.record("core.finish", parent, f0, end);
    if finished.is_err() {
        let _ = engine.abort();
    }
    pass.finish_s = (end - f0).as_secs_f64();
    pass.wall_s = (end - start).as_secs_f64();
    pass.push_total_ns = pass.push_ns.iter().sum::<f64>() * sample as f64;
    pass.outcome = finished;
    pass
}

/// What one paced feed measured, charging each delay to whoever caused
/// it: the generator (pacing wait overshoot, its own loop) or `push`.
#[derive(Debug, Default)]
pub struct Paced {
    /// Per event: how long after it could have been pushed — at its due
    /// instant, or when the previous push returned, whichever is later —
    /// the generator actually pushed it, ns.
    pub gen_lag_ns: Vec<f64>,
    /// Per event: the `push` call, ns.
    pub push_ns: Vec<f64>,
    /// The first error `push` returned.
    pub error: Option<Error>,
}

impl Paced {
    /// Index and size (ns) of the largest generator lag.
    pub fn worst_gen_lag(&self) -> (usize, f64) {
        worst(&self.gen_lag_ns)
    }

    /// Index and size (ns) of the longest push.
    pub fn worst_push(&self) -> (usize, f64) {
        worst(&self.push_ns)
    }
}

fn worst(xs: &[f64]) -> (usize, f64) {
    xs.iter().copied().enumerate().fold(
        (0, 0.0),
        |best, (i, x)| if x > best.1 { (i, x) } else { best },
    )
}

/// Pushes `events` on a fixed schedule: event `i` is due at
/// `start + offsets[i]`, whatever happened to the events before it.
pub fn paced(
    events: Vec<Event>,
    offsets: &[StdDuration],
    mut push: impl FnMut(Event) -> Result<(), Error>,
) -> Paced {
    let mut out = Paced {
        gen_lag_ns: Vec::with_capacity(events.len()),
        push_ns: Vec::with_capacity(events.len()),
        ..Paced::default()
    };
    let start = Instant::now() + StdDuration::from_millis(1);
    let mut prev_end = start;
    for (event, offset) in events.into_iter().zip(offsets) {
        let due = start + *offset;
        wait_until(due);
        let begin = Instant::now();
        let ready = due.max(prev_end);
        out.gen_lag_ns
            .push(begin.saturating_duration_since(ready).as_nanos() as f64);
        let pushed = push(event);
        prev_end = Instant::now();
        out.push_ns.push((prev_end - begin).as_nanos() as f64);
        if let Err(e) = pushed {
            out.error = Some(e);
            break;
        }
    }
    out
}

/// Sleeps through most of a long wait and yields the core through the
/// last stretch, so the engine's threads can run on it meanwhile.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > StdDuration::from_micros(200) {
            std::thread::sleep(left - StdDuration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// What one serving-runtime pass measured.
#[derive(Debug)]
pub struct ServePass {
    /// `ServeRuntime::new` alone.
    pub new_s: f64,
    /// `register_script` alone.
    pub register_s: f64,
    /// First push until the last plan was cancelled.
    pub wall_s: f64,
    /// Cancelling every plan (`finish`).
    pub cancel_s: f64,
    /// Sampled `push` durations, ns.
    pub push_ns: Vec<f64>,
    /// Threads of the process once every plan was registered.
    pub threads: f64,
    /// Runtime counters just before the plans were cancelled.
    pub snapshot: Option<ServeSnapshot>,
    /// Per plan: final statistics or the plan's error. Empty when the
    /// pass failed before any plan ran.
    pub plans: Vec<Result<RunStats, Error>>,
    /// A runtime-level error (setup or push).
    pub error: Option<Error>,
}

impl ServePass {
    /// `ServeRuntime::new` plus registration, up to the first push.
    pub fn setup_s(&self) -> f64 {
        self.new_s + self.register_s
    }
}

/// Registers `workload`'s served plans from its SQL script and pushes
/// `events` as fast as the runtime accepts them. Every `sample`-th push
/// is timed (0: none) and recorded as a span under `parent`.
pub fn serve_pass(
    workload: Workload,
    events: Vec<Event>,
    sample: usize,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> ServePass {
    let mut pass = ServePass {
        new_s: 0.0,
        register_s: 0.0,
        wall_s: 0.0,
        cancel_s: 0.0,
        push_ns: Vec::new(),
        threads: 0.0,
        snapshot: None,
        plans: Vec::new(),
        error: None,
    };
    let t0 = Instant::now();
    let cfg = ServeConfig {
        default_joiners: joiners(),
        ..ServeConfig::new()
    };
    let mut rt = match ServeRuntime::new(cfg) {
        Ok(rt) => rt,
        Err(e) => {
            pass.error = Some(e);
            return pass;
        }
    };
    let t1 = Instant::now();
    tracer.record("serve.new", parent, t0, t1);
    let registered = rt.register_script(&workload.serve_script(), &Sink::null());
    let t2 = Instant::now();
    tracer.record("serve.register", parent, t1, t2);
    pass.new_s = (t1 - t0).as_secs_f64();
    pass.register_s = (t2 - t1).as_secs_f64();
    if let Err(e) = registered {
        pass.error = Some(e);
        return pass;
    }
    if sample > 0 {
        pass.threads = threads_now();
    }
    let start = Instant::now();
    for (i, event) in events.into_iter().enumerate() {
        let pushed = if sample > 0 && i % sample == 0 {
            let a = Instant::now();
            let r = rt.push(event);
            let b = Instant::now();
            pass.push_ns.push((b - a).as_nanos() as f64);
            if i % (sample * SPAN_EVERY) == 0 {
                tracer.record("serve.push", parent, a, b);
            }
            r
        } else {
            rt.push(event)
        };
        if let Err(e) = pushed {
            pass.error = Some(e);
            break;
        }
    }
    pass.snapshot = Some(rt.snapshot());
    let c0 = Instant::now();
    pass.plans = rt.finish().into_iter().map(|(_, r)| r).collect();
    let end = Instant::now();
    tracer.record("serve.cancel", parent, c0, end);
    pass.cancel_s = (end - c0).as_secs_f64();
    pass.wall_s = (end - start).as_secs_f64();
    pass
}

/// What one crash→recover cycle measured.
#[derive(Debug)]
pub struct CrashCycle {
    /// `oij_durability::scan` over the crashed log, on its own.
    pub scan_s: f64,
    /// The `recover` call: log scan, engine spawn and replay.
    pub recovery_s: f64,
    /// Events `recover` replayed.
    pub replayed: u64,
    /// Rows delivered before the crash (collecting passes only).
    pub pre_rows: Vec<FeatureRow>,
    /// Rows delivered after recovery (collecting passes only).
    pub post_rows: Vec<FeatureRow>,
    /// Statistics of the recovered run, or the error that ended the cycle.
    pub outcome: Result<RunStats, Error>,
}

/// Runs `cfg` (which must carry durability) until a crash injected at
/// joiner 0's `ordinal`-th data message, then recovers from the log,
/// resumes the feed after the last logged event and finishes. The log
/// is removed afterwards.
pub fn crash_cycle(
    kind: EngineKind,
    cfg: EngineConfig,
    events: &[Event],
    ordinal: u64,
    collect: bool,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> CrashCycle {
    let _wal = WalCleanup::of(&cfg);
    let mut cycle = CrashCycle {
        scan_s: 0.0,
        recovery_s: 0.0,
        replayed: 0,
        pre_rows: Vec::new(),
        post_rows: Vec::new(),
        outcome: Err(Error::InvalidState("not run".into())),
    };
    let sink = || {
        if collect {
            let (sink, rows) = Sink::collect();
            (sink, Some(rows))
        } else {
            (Sink::null(), None)
        }
    };

    // Phase 1: run until the injected crash surfaces.
    let mut crash_cfg = cfg.clone();
    crash_cfg.faults = FaultPlan::none().crash_at(0, ordinal);
    crash_cfg.send_timeout = StdDuration::from_millis(500);
    crash_cfg.channel_capacity = 16;
    let (pre_sink, pre_rows) = sink();
    let crashed = match spawn_engine(kind, crash_cfg, pre_sink) {
        Ok(mut engine) => {
            let mut crashed = events.iter().any(|e| engine.push(e.clone()).is_err());
            if !crashed {
                crashed = engine.finish().is_err();
            }
            let _ = engine.abort();
            crashed
        }
        Err(e) => {
            cycle.outcome = Err(e);
            return cycle;
        }
    };
    if let Some(rows) = pre_rows {
        cycle.pre_rows = rows.lock().clone();
    }
    if !crashed {
        cycle.outcome = Err(Error::InvalidState(format!(
            "the crash injected at ordinal {ordinal} never surfaced"
        )));
        return cycle;
    }

    // Phase 2: recover and resume.
    let Some(dcfg) = cfg.durability.clone() else {
        cycle.outcome = Err(Error::InvalidConfig(
            "crash cycle without durability".into(),
        ));
        return cycle;
    };
    let s0 = Instant::now();
    let scanned = oij_durability::scan(&dcfg);
    let s1 = Instant::now();
    tracer.record("durability.scan", parent, s0, s1);
    cycle.scan_s = (s1 - s0).as_secs_f64();
    if let Err(e) = scanned {
        cycle.outcome = Err(e);
        return cycle;
    }
    let (post_sink, post_rows) = sink();
    let r0 = Instant::now();
    let recovered = recover(kind, cfg, post_sink);
    let r1 = Instant::now();
    tracer.record("core.recover", parent, r0, r1);
    cycle.recovery_s = (r1 - r0).as_secs_f64();
    let (mut engine, report) = match recovered {
        Ok(r) => r,
        Err(e) => {
            cycle.outcome = Err(e);
            return cycle;
        }
    };
    cycle.replayed = report.replayed;
    let resume = report.last_seq.map_or(0, |s| s + 1);
    let mut outcome = Ok(());
    for event in events.iter().filter(|e| e.seq >= resume) {
        if let Err(e) = engine.push(event.clone()) {
            outcome = Err(e);
            break;
        }
    }
    cycle.outcome = match outcome {
        Ok(()) => engine.finish(),
        Err(e) => Err(e),
    };
    if cycle.outcome.is_err() {
        let _ = engine.abort();
    }
    drop(engine);
    if let Some(rows) = post_rows {
        cycle.post_rows = rows.lock().clone();
    }
    cycle
}

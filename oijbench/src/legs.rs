//! The legs of each workload. A leg runs in a process of its own (so
//! no pass inherits another leg's heap), repeats its pass until its
//! share of `--seconds` is spent, and reports per-pass samples.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration as StdDuration, Instant};

use oij_common::{Error, Event, FeatureRow};
use oij_core::{EngineKind, Instrumentation, Oracle, RunStats, Sink};
use oij_metrics::LatencyHistogram;
use oij_workload::OpenLoopConfig;

use crate::drive::{
    bases, crash_cycle, durability, engine_config, engine_pass, paced, wal_dir, EnginePass, Paced,
    ServePass, WalCleanup,
};
use crate::layers;
use crate::report::{
    hist_quantile_ms, median, quantile, reset_rss_peak, rss_peak_kib, Report, Tracer,
};
use crate::workload::{joiners, Workload, BATCH};

/// Wall time of one open-loop pass.
const OPEN_PASS: StdDuration = StdDuration::from_millis(250);

/// Every timed pass of a traced run times one push in this many.
pub const PUSH_SAMPLE: usize = 16;

/// The route-bound comparison legs: (leg, engine, batch size).
const ROUTE_LEGS: [(&str, EngineKind, usize); 4] = [
    ("batch1", EngineKind::ScaleOij, 1),
    ("key-oij", EngineKind::KeyOij, 64),
    ("splitjoin", EngineKind::SplitJoin, 64),
    ("openmldb", EngineKind::OpenMldb, 64),
];

/// The timed legs of one run and each one's share of `--seconds`. A
/// run also makes one untimed `verify` pass (the oracle gate).
pub fn plan(workload: Workload, trace: bool) -> Vec<(&'static str, f64)> {
    let mut legs = Vec::new();
    if trace {
        legs.extend([("closed", 0.4), ("open", 0.3), ("layers", 0.3)]);
        return legs;
    }
    match workload {
        Workload::RouteBound => {
            legs.push(("closed", 0.3));
            legs.extend(ROUTE_LEGS.iter().map(|(name, _, _)| (*name, 0.075)));
            legs.push(("open", 0.4));
        }
        Workload::DurableRecover => {
            legs.extend([("closed", 0.45), ("recover", 0.25), ("open", 0.3)]);
        }
        Workload::ScanBound => {
            legs.extend([("closed", 0.5), ("open", 0.5)]);
        }
    }
    legs
}

/// One leg's inputs and what it has measured so far.
pub struct Leg<'a> {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Which round of the run this leg process is (see [`Leg::pass_seed`]).
    pub round: u64,
    /// This leg's share of the run.
    pub budget: StdDuration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where write-ahead logs go.
    pub scratch: &'a Path,
    /// Spans around calls into the crates.
    pub tracer: Tracer,
    /// Metrics and failure accounting.
    pub report: Report,
}

impl Leg<'_> {
    /// Runs the leg called `name`.
    pub fn run(&mut self, name: &str) -> Result<(), String> {
        let w = self.workload;
        match name {
            "verify" => self.verify(),
            "closed" => self.closed_engine(),
            "open" => self.open_engine(),
            "recover" if w == Workload::DurableRecover => self.recover(),
            "layers" => {
                let events = w.events(self.seed);
                layers::run(self, &events);
            }
            other => match ROUTE_LEGS.iter().find(|(n, _, _)| *n == other) {
                Some(&(_, kind, batch)) if w == Workload::RouteBound => {
                    self.comparison(other, kind, batch)
                }
                _ => return Err(format!("no leg '{other}' on {}", w.name())),
            },
        }
        Ok(())
    }

    /// The stream seed of pass `pass`: every timed pass gets a stream of
    /// its own, derived from `--seed`, the round and the pass index, so a
    /// run's medians average over many streams rather than resting on one.
    pub fn pass_seed(&self, pass: usize) -> u64 {
        splitmix(splitmix(splitmix(self.seed) ^ self.round) ^ pass as u64)
    }

    /// The closed-loop stream of pass `pass`, `scale` times the usual
    /// length: (events, tuples, bases).
    fn pass_events(&self, pass: usize, scale: usize) -> (Vec<Event>, f64, u64) {
        let w = self.workload;
        let events = w
            .stream(scale * w.pass_tuples(), self.pass_seed(pass))
            .generate();
        let (n, b) = (events.len() as f64, bases(&events));
        (events, n, b)
    }

    /// Repeats `pass` until the budget is spent (at least `min` times).
    pub(crate) fn repeat(&mut self, min: usize, mut pass: impl FnMut(&mut Self, usize)) {
        let start = Instant::now();
        let mut i = 0;
        while i < min || start.elapsed() < self.budget {
            pass(self, i);
            i += 1;
        }
    }

    /// The solo-engine config of this workload's primary path, with a
    /// fresh write-ahead log on `durable-recover`.
    fn primary_config(&self, kind: EngineKind, batch: usize) -> oij_core::EngineConfig {
        let cfg = engine_config(self.workload, kind, batch);
        if self.workload == Workload::DurableRecover {
            cfg.with_durability(durability(&wal_dir(self.scratch)))
        } else {
            cfg
        }
    }

    /// Counts one solo-engine pass: every base tuple must get exactly
    /// one row (the oracle's row count: one per base tuple, since every
    /// stream respects its lateness bound) and nothing may be late.
    pub fn account_engine<'r>(
        &mut self,
        what: &str,
        bases: u64,
        outcome: &'r Result<RunStats, Error>,
    ) -> Option<&'r RunStats> {
        match outcome {
            Ok(stats) => {
                let off = stats.results.abs_diff(bases);
                let error = (off != 0 || stats.late_violations != 0).then(|| {
                    format!(
                        "{what}: {} rows for {bases} base tuples, {} late violations",
                        stats.results, stats.late_violations
                    )
                });
                let failed = off.max(stats.late_violations);
                self.report.account(bases, failed, error);
                Some(stats)
            }
            Err(e) => {
                self.report
                    .account(bases, bases, Some(format!("{what}: {e}")));
                None
            }
        }
    }

    /// Counts one serving pass, plan by plan.
    pub(crate) fn account_serve(&mut self, what: &str, bases: u64, pass: &ServePass) {
        if let Some(e) = &pass.error {
            self.report
                .account(bases, bases, Some(format!("{what}: {e}")));
            return;
        }
        for (i, plan) in pass.plans.iter().enumerate() {
            match plan {
                Ok(stats) => {
                    let off = stats.results.abs_diff(bases);
                    let failed = off.max(stats.shed_events).max(stats.late_violations);
                    let error = (failed != 0).then(|| {
                        format!(
                            "{what} plan{i}: {} rows for {bases} base tuples, {} shed, {} late",
                            stats.results, stats.shed_events, stats.late_violations
                        )
                    });
                    self.report.account(bases, failed, error);
                }
                Err(e) => self
                    .report
                    .account(bases, bases, Some(format!("{what} plan{i}: {e}"))),
            }
        }
    }

    /// Compares delivered rows with the oracle's, each row exactly once.
    /// Every field must match exactly except the aggregate, which must
    /// agree within the oracle tolerance the repository's own suites use
    /// (1e-9, relative): Subtract-on-Evict sums round differently from
    /// a fresh sum. Returns the rows that agree, but not bit for bit.
    fn check_rows(&mut self, what: &str, want: &[FeatureRow], got: Vec<FeatureRow>) -> u64 {
        let mut by_seq: BTreeMap<u64, Vec<FeatureRow>> = BTreeMap::new();
        for row in got {
            by_seq.entry(row.seq).or_default().push(row);
        }
        let (mut failed, mut bit_diffs) = (0, 0);
        let mut first = None;
        for w in want {
            match by_seq.remove(&w.seq).as_deref() {
                Some([g]) if same(g, w) => {}
                Some([g]) if same_within_tolerance(g, w) => bit_diffs += 1,
                _ => {
                    failed += 1;
                    first.get_or_insert(w.seq);
                }
            }
        }
        let extra = by_seq.len();
        let error = (failed > 0 || extra > 0).then(|| {
            format!(
                "{what}: {failed} of {} rows missing, duplicated or different from the \
                 oracle (first at seq {first:?}), {extra} rows the oracle has not",
                want.len()
            )
        });
        self.report
            .account(want.len() as u64, failed + extra as u64, error);
        bit_diffs
    }

    /// The untimed oracle gate. Reports how many rows agreed with the
    /// oracle within tolerance but not bit for bit.
    fn verify(&mut self) {
        let w = self.workload;
        let mut bit_diffs = 0;
        let events = w.events(self.seed);
        let mut tracer = Tracer::new(false);
        let want = Oracle::new(w.query()).run(&events);
        let mut engines = vec![(EngineKind::ScaleOij, BATCH)];
        if w == Workload::RouteBound {
            engines.extend(ROUTE_LEGS.iter().map(|&(_, k, b)| (k, b)));
        }
        for (kind, batch) in engines {
            let cfg = self.primary_config(kind, batch);
            let (sink, rows) = Sink::collect();
            let pass = engine_pass(kind, cfg, sink, events.clone(), 0, &mut tracer, None);
            let what = format!("verify {} batch={batch}", kind.label());
            match &pass.outcome {
                Ok(_) => {
                    let got = rows.lock().clone();
                    bit_diffs += self.check_rows(&what, &want, got);
                }
                Err(e) => {
                    let n = want.len() as u64;
                    self.report.account(n, n, Some(format!("{what}: {e}")));
                }
            }
        }
        if w == Workload::DurableRecover {
            let cfg = self.primary_config(EngineKind::ScaleOij, BATCH);
            let cycle = crash_cycle(
                EngineKind::ScaleOij,
                cfg,
                &events,
                crash_ordinal(&events),
                true,
                &mut tracer,
                None,
            );
            match &cycle.outcome {
                Ok(_) => {
                    let union = cycle.pre_rows.into_iter().chain(cycle.post_rows).collect();
                    bit_diffs += self.check_rows("verify crash+recover", &want, union);
                }
                Err(e) => {
                    let n = want.len() as u64;
                    self.report
                        .account(n, n, Some(format!("verify crash+recover: {e}")));
                }
            }
        }
        self.report
            .put("verify.agg_bit_diffs", bit_diffs as f64, "rows");
    }

    /// The primary closed-loop leg on a solo engine. Untraced runs make
    /// every other pass a memory pass: it hands the heap's free memory
    /// back first, so its page faults would distort a timing, and it
    /// gives one sample of how far the resident set rose. The remaining
    /// passes each give one sample of throughput and of set-up time.
    /// Traced runs alternate untraced and traced passes instead, so the
    /// two can be compared.
    fn closed_engine(&mut self) {
        let mut tps = Vec::new();
        let mut traced: Vec<(EnginePass, f64)> = Vec::new();
        let min = if self.trace { 6 } else { 3 };
        self.repeat(min, |leg, i| {
            let on = leg.trace && i % 2 == 1;
            let memory = !leg.trace && i % 2 == 1;
            // A memory pass is twice as long, so that the channel
            // backlog of a pushing thread faster than its joiner reaches
            // the channel's capacity rather than stopping wherever the
            // two threads' relative speed left it.
            let scale = if memory { 2 } else { 1 };
            let (events, n, b) = leg.pass_events(i, scale);
            let mut cfg = leg.primary_config(EngineKind::ScaleOij, BATCH);
            if on {
                cfg = cfg.with_instrument(Instrumentation::full());
            }
            let parent = leg
                .tracer
                .begin(if on { "pass.traced" } else { "pass" }, None);
            let sample = if on { PUSH_SAMPLE } else { 0 };
            let rss_base = if memory { reset_rss_peak() } else { f64::NAN };
            let pass = engine_pass(
                EngineKind::ScaleOij,
                cfg,
                Sink::null(),
                events,
                sample,
                &mut leg.tracer,
                parent,
            );
            leg.tracer.end(parent);
            if leg.account_engine("closed", b, &pass.outcome).is_some() {
                if on {
                    traced.push((pass, n));
                } else if memory {
                    let growth_mib = (rss_peak_kib() - rss_base) / 1024.0;
                    leg.report.sample("peak_rss_mb", growth_mib, "MiB");
                } else {
                    tps.push(n / pass.wall_s);
                    leg.report
                        .sample("throughput_tps", n / pass.wall_s, "tuples/s");
                    leg.report.sample("setup_s", pass.setup_s, "s");
                }
            }
        });
        if self.trace {
            let traced_tps: Vec<f64> = traced.iter().map(|(p, n)| n / p.wall_s).collect();
            self.report.put(
                "trace.overhead_ratio",
                median(&tps) / median(&traced_tps),
                "ratio",
            );
            core_layer(&mut self.report, &traced);
        }
    }

    /// A route-bound comparison leg: the primary feed on another engine
    /// or batch size.
    fn comparison(&mut self, name: &str, kind: EngineKind, batch: usize) {
        let metric = format!("throughput_tps.{name}");
        self.repeat(3, |leg, i| {
            let (events, n, b) = leg.pass_events(i, 1);
            let cfg = engine_config(leg.workload, kind, batch);
            let mut tracer = Tracer::new(false);
            let pass = engine_pass(kind, cfg, Sink::null(), events, 0, &mut tracer, None);
            if leg.account_engine(name, b, &pass.outcome).is_some() {
                leg.report.sample(&metric, n / pass.wall_s, "tuples/s");
            }
        });
    }

    /// The open-loop plan of pass `pass` at the workload's fixed rate.
    fn open_plan(&self, pass: usize) -> oij_workload::OpenLoopPlan {
        let w = self.workload;
        let tuples = (w.offered_rate() * OPEN_PASS.as_secs_f64()) as usize;
        let stream = w.stream(tuples, self.pass_seed(pass));
        OpenLoopConfig::steady(stream, w.offered_rate()).plan()
    }

    /// The open-loop leg on a solo engine: latency from push to emission
    /// out of the engine's histogram (`Instrumentation::latency()` only).
    /// Each pass gives one sample of p50 and p99; the leg also pools
    /// every pass's histogram and reports that pool's p99 beside them.
    fn open_engine(&mut self) {
        let mut feeds = Vec::new();
        let mut pooled = LatencyHistogram::new();
        self.repeat(3, |leg, i| {
            let plan = leg.open_plan(i);
            let b = bases(&plan.events);
            let cfg = leg
                .primary_config(EngineKind::ScaleOij, BATCH)
                .with_instrument(Instrumentation::latency());
            let _wal = WalCleanup::of(&cfg);
            let parent = leg.tracer.begin("pass.open", None);
            let (outcome, feed) =
                match oij_core::spawn_engine(EngineKind::ScaleOij, cfg, Sink::null()) {
                    Ok(mut engine) => {
                        let feed = paced(plan.events, &plan.offsets, |e| engine.push(e));
                        let outcome = match &feed.error {
                            Some(e) => Err(e.clone()),
                            None => engine.finish(),
                        };
                        if outcome.is_err() {
                            let _ = engine.abort();
                        }
                        (outcome, Some(feed))
                    }
                    Err(e) => (Err(e), None),
                };
            leg.tracer.end(parent);
            if let Some(stats) = leg.account_engine("open", b, &outcome) {
                if let Some(h) = &stats.latency {
                    let r = &mut leg.report;
                    r.sample("latency_p50_ms", hist_quantile_ms(h, 0.50), "ms");
                    r.sample("latency_p99_ms", hist_quantile_ms(h, 0.99), "ms");
                    pooled.merge(h);
                }
            }
            feeds.extend(feed);
        });
        if pooled.count() > 0 {
            // Not gated: on a shared 2-core host, stalls from outside the
            // program set this figure in some rounds (NOTES.md).
            let r = &mut self.report;
            let p99 = hist_quantile_ms(&pooled, 0.99);
            r.sample("latency_p99_ms.pooled", p99, "ms");
            r.sample("latency.samples", pooled.count() as f64, "count");
        }
        self.put_lag(&feeds);
    }

    /// How each open-loop pass's feed lagged: the generator's own lag,
    /// and the longest push.
    fn put_lag(&mut self, feeds: &[Paced]) {
        let lag: Vec<f64> = feeds
            .iter()
            .flat_map(|f| f.gen_lag_ns.iter().copied())
            .collect();
        let push: Vec<f64> = feeds
            .iter()
            .flat_map(|f| f.push_ns.iter().copied())
            .collect();
        let max_lag = lag.iter().copied().fold(0.0, f64::max);
        self.report
            .put("workload.gen_lag_p99_ms", quantile(&lag, 0.99) / 1e6, "ms");
        self.report
            .put("workload.gen_lag_max_ms", max_lag / 1e6, "ms");
        self.report
            .put("workload.push_p99_ms", quantile(&push, 0.99) / 1e6, "ms");
        self.report.put(
            "workload.push_max_ms",
            push.iter().copied().fold(0.0, f64::max) / 1e6,
            "ms",
        );
        let pick = |f: fn(&Paced) -> (usize, f64)| {
            feeds
                .iter()
                .enumerate()
                .map(|(pass, feed)| (pass, f(feed)))
                .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
        };
        if let (Some((lp, (le, lag))), Some((pp, (pe, push)))) =
            (pick(Paced::worst_gen_lag), pick(Paced::worst_push))
        {
            self.report.notes.push(format!(
                "worst generator lag {:.3} ms (pass {lp}, event {le}); \
                 longest push {:.3} ms (pass {pp}, event {pe}); over {} passes",
                lag / 1e6,
                push / 1e6,
                feeds.len()
            ));
        }
    }

    /// `durable-recover`: crash at a fixed ordinal, time `recover`, and
    /// finish feeding.
    fn recover(&mut self) {
        self.repeat(3, |leg, i| {
            let (events, _, b) = leg.pass_events(i, 1);
            let ordinal = crash_ordinal(&events);
            let cfg = leg.primary_config(EngineKind::ScaleOij, BATCH);
            let parent = leg.tracer.begin("pass.recover", None);
            let cycle = crash_cycle(
                EngineKind::ScaleOij,
                cfg,
                &events,
                ordinal,
                false,
                &mut leg.tracer,
                parent,
            );
            leg.tracer.end(parent);
            if leg.account_engine("recover", b, &cycle.outcome).is_some() {
                leg.report.sample("recovery_s", cycle.recovery_s, "s");
            }
        });
    }
}

/// SplitMix64's finaliser: spreads consecutive inputs over all bits.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where the crash is injected: joiner 0's data message at 90% of its
/// share of the feed, so recovery replays most of the log.
pub fn crash_ordinal(events: &[Event]) -> u64 {
    (events.len() as u64 * 9 / 10) / joiners() as u64
}

/// Bit-for-bit row equality (`f64` compared by bits).
fn same(a: &FeatureRow, b: &FeatureRow) -> bool {
    same_within_tolerance(a, b) && a.agg.map(f64::to_bits) == b.agg.map(f64::to_bits)
}

/// Row equality with the aggregate compared within the oracle tolerance.
fn same_within_tolerance(a: &FeatureRow, b: &FeatureRow) -> bool {
    a.ts == b.ts
        && a.key == b.key
        && a.seq == b.seq
        && a.matched == b.matched
        && a.late == b.late
        && a.agg_approx_eq(b, 1e-9)
}

/// Ingest-side (spawn, `push`, `finish`) and joiner-side `oij-core` metrics of traced solo-engine
/// passes (`Instrumentation::full()`, one push in [`PUSH_SAMPLE`] timed).
pub fn core_layer(report: &mut Report, traced: &[(EnginePass, f64)]) {
    let push: Vec<f64> = traced
        .iter()
        .flat_map(|(p, _)| p.push_ns.iter().copied())
        .collect();
    report.put("core.push_ns.p50", quantile(&push, 0.5), "ns");
    report.put("core.push_ns.p99", quantile(&push, 0.99), "ns");
    let per = |f: &dyn Fn(&EnginePass, &RunStats) -> f64| -> f64 {
        let v: Vec<f64> = traced
            .iter()
            .filter_map(|(p, _)| p.outcome.as_ref().ok().map(|s| f(p, s)))
            .collect();
        median(&v)
    };
    report.put(
        "core.push_busy_share",
        per(&|p, _| p.push_total_ns / 1e9 / p.wall_s),
        "ratio",
    );
    report.put("core.finish_s", per(&|p, _| p.finish_s), "s");
    report.put("core.spawn_s", per(&|p, _| p.setup_s), "s");
    let bd = |f: fn(&oij_metrics::TimeBreakdown) -> u64| {
        move |_: &EnginePass, s: &RunStats| s.breakdown.as_ref().map_or(0.0, |b| f(b) as f64 / 1e9)
    };
    report.put("core.joiner.lookup_s", per(&bd(|b| b.lookup_ns)), "s");
    report.put("core.joiner.match_s", per(&bd(|b| b.match_ns)), "s");
    report.put("core.joiner.other_s", per(&bd(|b| b.other_ns)), "s");
    report.put(
        "core.effectiveness",
        per(&|_, s| s.effectiveness.unwrap_or(0.0)),
        "ratio",
    );
    report.put(
        "core.batch_occupancy.mean",
        per(&|_, s| s.batch_occupancy.mean()),
        "tuples",
    );
    report.put("core.evicted", per(&|_, s| s.evicted as f64), "count");
    report.put(
        "core.late_violations",
        per(&|_, s| s.late_violations as f64),
        "count",
    );
    report.put(
        "core.unbalancedness",
        per(&|_, s| s.unbalancedness),
        "ratio",
    );
    report.put(
        "core.schedule_changes",
        per(&|_, s| s.schedule_changes as f64),
        "count",
    );
    report.put(
        "proc.threads_peak",
        traced.iter().map(|(p, _)| p.threads).fold(0.0, f64::max),
        "count",
    );
}

/// `oij-serve` and `oij-sql` metrics of traced serving passes (one push
/// in [`PUSH_SAMPLE`] timed).
pub fn serve_layer(report: &mut Report, traced: &[ServePass]) {
    let push: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.push_ns.iter().copied())
        .collect();
    report.put("serve.push_ns.p50", quantile(&push, 0.5), "ns");
    report.put("serve.push_ns.p99", quantile(&push, 0.99), "ns");
    let per = |f: &dyn Fn(&ServePass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    report.put("serve.register_s", per(&|p| p.setup_s()), "s");
    report.put("sql.register_script_s", per(&|p| p.register_s), "s");
    report.put("serve.cancel_s", per(&|p| p.cancel_s), "s");
    let snap = |f: fn(&oij_serve::ServeSnapshot) -> f64| {
        move |p: &ServePass| p.snapshot.as_ref().map_or(0.0, f)
    };
    report.put(
        "serve.retained",
        per(&snap(|s| s.retained as f64)),
        "tuples",
    );
    report.put("serve.evicted", per(&snap(|s| s.evicted as f64)), "tuples");
    report.put(
        "serve.shed",
        traced
            .iter()
            .flat_map(|p| p.plans.iter().flatten())
            .map(|s| s.shed_events as f64)
            .sum(),
        "count",
    );
    report.put(
        "proc.threads_peak",
        traced.iter().map(|p| p.threads).fold(0.0, f64::max),
        "count",
    );
}

//! What one leg reports: named metrics with units, failure accounting,
//! and the spans recorded around calls into the crates.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use oij_metrics::LatencyHistogram;

/// Metrics and failure accounting of one leg, printed as one JSON line.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    samples: Vec<(String, Vec<f64>, &'static str)>,
    /// Base tuples offered, over every pass of the leg.
    pub attempted: u64,
    /// Base tuples without a correct delivered row: missing, different
    /// from the oracle, shed, or lost to a pass that returned `Err`.
    pub failed: u64,
    /// Structured errors and divergences, one line each.
    pub errors: Vec<String>,
    /// Observations worth printing that are not failures.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric; a later value under the same name replaces it.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, value, unit));
    }

    /// Adds one per-pass sample of a metric. The runner reports the
    /// median of the samples that every process of the run adds.
    pub fn sample(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.samples.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, values, _)) => values.push(value),
            None => self.samples.push((name.to_string(), vec![value], unit)),
        }
    }

    /// Counts `bases` base tuples offered by one pass, of which `failed`
    /// got no correct row; `error` says why, when something went wrong.
    pub fn account(&mut self, bases: u64, failed: u64, error: Option<String>) {
        self.attempted += bases;
        self.failed += failed.min(bases);
        if let Some(e) = error {
            self.errors.push(e);
        }
    }

    /// The JSON line the runner reads back.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\": {");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {value:?}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            );
        }
        out.push_str("}, \"samples\": {");
        for (i, (name, values, unit)) in self.samples.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let values: Vec<String> = values
                .iter()
                .map(|v| format!("{:?}", if v.is_finite() { *v } else { -1.0 }))
                .collect();
            let _ = write!(
                out,
                "{sep}{}: {{\"values\": [{}], \"unit\": {}}}",
                quote(name),
                values.join(", "),
                quote(unit)
            );
        }
        let list = |xs: &[String]| xs.iter().map(|x| quote(x)).collect::<Vec<_>>().join(", ");
        let _ = write!(
            out,
            "}}, \"attempted\": {}, \"failed\": {}, \"errors\": [{}], \"notes\": [{}]}}",
            self.attempted,
            self.failed,
            list(&self.errors),
            list(&self.notes)
        );
        out
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of `xs` (mean of the two middle values for an even count);
/// NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile of `xs`; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Quantile `q` of an engine latency histogram, in milliseconds.
///
/// The histogram keeps 16 buckets per power of two; samples are taken
/// as spread evenly inside their bucket, so the estimate moves with the
/// distribution instead of snapping to bucket bounds.
pub fn hist_quantile_ms(h: &LatencyHistogram, q: f64) -> f64 {
    let mut below = 0.0;
    for (lower, cum) in h.cdf() {
        if cum >= q {
            let width = if lower < 32 {
                1
            } else {
                1u64 << (63 - lower.leading_zeros() - 4)
            };
            let frac = if cum > below {
                (q - below) / (cum - below)
            } else {
                1.0
            };
            let ns = (lower as f64 + frac * width as f64).min(h.max_ns() as f64);
            return ns / 1e6;
        }
        below = cum;
    }
    h.max_ns() as f64 / 1e6
}

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Most spans one leg keeps; later ones are counted, not kept.
const MAX_SPANS: usize = 20_000;

/// Spans recorded around calls into the crates, kept in memory and
/// written out when the leg ends. A disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Opens a span now; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &str, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Records a finished span between two instants.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns: at(start),
            end_ns: at(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Writes the spans, if any, as a JSON object: `spans` (`id` is the
    /// array index) and `dropped`, the spans past the cap that were not
    /// kept.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if self.spans.is_empty() {
            return Ok(());
        }
        let mut out = format!("{{\"dropped\": {}, \"spans\": [\n", self.dropped);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                quote(&s.name),
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// Threads of this process right now, from `/proc/self/status`
/// (0 where that file does not exist).
pub fn threads_now() -> f64 {
    status_field("Threads:").max(0.0)
}

/// A numeric field of `/proc/self/status` (sizes in kB); NaN where it
/// cannot be read.
fn status_field(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(f64::NAN)
}

/// Hands the heap's free memory back to the kernel, restarts the
/// process's peak resident set (`VmHWM`) from its current size, and
/// returns that size, KiB (NaN where Linux `/proc` is absent). Without
/// the trim, a pass would run in pages an earlier pass freed and its
/// own growth would not show.
pub fn reset_rss_peak() -> f64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and is
        // thread-safe; it only releases free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
    // "5" resets the peak resident set to the current one (Linux 4.0+).
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        return f64::NAN;
    }
    status_field("VmRSS:")
}

/// Peak resident set since the last [`reset_rss_peak`], KiB.
pub fn rss_peak_kib() -> f64 {
    status_field("VmHWM:")
}

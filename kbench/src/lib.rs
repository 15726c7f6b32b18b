//! The repository benchmark: end-to-end and per-layer metrics of the
//! kiff stack, measured from outside through its public API.
//!
//! `kbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload ([`workload`]) through four phases ([`run`]) —
//! set-up, a durable update stream with a concurrent reader, recovery of
//! the crash image, and checks against an independent oracle
//! ([`oracle`]) — and prints one JSON line of metrics. With `--trace 1`
//! it then replays the same inputs layer by layer ([`trace`]) and
//! reports the per-layer metrics instead. See README.md.

mod oracle;
pub mod run;
mod stats;
mod trace;
pub mod workload;

use run::{Metric, Options};

/// The result of one invocation: the last line the binary prints.
#[derive(Debug)]
pub struct Report {
    /// Whether every check passed.
    pub correct: bool,
    /// Operations sent to the program.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Reference lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// The result as one JSON object.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `options`: the untraced phases, then the traced replay when
/// asked. The host-noise readout brackets the whole run.
pub fn execute(options: &Options) -> Result<Report, String> {
    let steal_before = stats::steal_ticks();
    let switches_before = stats::thread_involuntary_switches();
    let untraced = run::run(options)?;
    let mut notes = untraced.notes.clone();
    let mut attempted = untraced.ops.attempted;
    let mut failed = untraced.ops.failed;
    let mut messages = untraced.checks.messages.clone();
    let metrics = if options.trace {
        let out = options.root.join(".bench_out").join(format!(
            "trace-{}-seed{}.json",
            options.workload.name(),
            options.seed
        ));
        let end_to_end: Vec<String> = untraced
            .metrics
            .iter()
            .map(|m| format!("{} {} {}", m.name, m.value, m.unit))
            .collect();
        notes.push(format!("untraced end-to-end: {}", end_to_end.join("; ")));
        let traced = trace::replay(&untraced, options.seed, &out)?;
        notes.extend(traced.notes);
        attempted += traced.ops.attempted;
        failed += traced.ops.failed;
        messages.extend(traced.checks.messages);
        traced.metrics
    } else {
        untraced.metrics.clone()
    };
    drop(untraced);
    for m in &metrics {
        if !m.value.is_finite() {
            messages.push(format!("metric {} is not a finite number", m.name));
        }
    }
    notes.push(format!(
        "host noise over the run: {} CPU steal ticks (machine), {} involuntary context switches (main thread)",
        stats::steal_ticks() - steal_before,
        stats::thread_involuntary_switches() - switches_before
    ));
    for message in &messages {
        notes.push(format!("CHECK FAILED: {message}"));
    }
    Ok(Report {
        correct: messages.is_empty(),
        attempted,
        failed,
        metrics,
        notes,
    })
}

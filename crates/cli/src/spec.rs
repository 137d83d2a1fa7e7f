//! The plain-text simulation spec, its parser and its runner.
//!
//! A spec describes one single-bus system in the vocabulary of the
//! `scenario` crate: the arbiter is a [`scenario::ArbiterSel`], each
//! `master` line a [`scenario::MasterDecl`], and the arbiter chain and
//! traffic generators are built by that crate's builders.
//! [`run_spec`] runs a parsed spec and renders its report.

use crate::report::{render_metrics, render_replica_summary, render_report};
use scenario::{ArbiterSel, Arrival, FailoverDecl, MasterDecl};
use socsim::{BusConfig, FaultConfig, Kernel, RetryPolicy, SystemBuilder, TraceSink, WindowSample};
use std::error::Error;
use std::fmt;

/// The starter spec `lotterybus-sim --example` prints.
pub const EXAMPLE_SPEC: &str = "\
# lotterybus-sim example spec
arbiter = lottery       # lottery | lottery-dynamic | priority | tdma | rr | token
burst   = 16
cycles  = 200000
warmup  = 20000
seed    = 7

# master <name> weight=<w> load=<words/cycle> size=<words> [burst|periodic]
master cpu   weight=4 load=0.30 size=16
master dsp   weight=2 load=0.25 size=16 burst
master dma   weight=1 load=0.15 size=8  periodic

# Optional fault injection & recovery (uncomment to enable).
# The plan is seeded from `seed`, so runs are reproducible.
# fault slave-error  rate=0.01
# fault slave-outage rate=0.001 duration=64
# fault grant-drop   rate=0.005
# fault master-stall rate=0.002 max=8
# retry max=4 backoff=2x
# timeout  = 256      # abort transactions wedged this many cycles
# failover = 64       # wrap the arbiter; fall over to round-robin

# Optional observability (uncomment to enable).
# metrics window=1000             # windowed metrics in the report
# trace sink=jsonl:events.jsonl   # stream trace events as JSON lines
# trace sink=vcd:waves.vcd        # or stream a VCD waveform

# Optional kernel selection. `fast` skips provably idle spans and is
# byte-identical to `cycle`; `tlm` is accepted as an alias of `fast`.
# kernel = fast                   # cycle | fast (default cycle)
";

/// A streaming trace destination from the spec's `trace sink=` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceSinkSpec {
    /// `jsonl:<path>` — one JSON object per trace event, streamed to
    /// the file as the simulation runs (never truncated).
    Jsonl(String),
    /// `vcd:<path>` — a VCD waveform streamed to the file as the
    /// simulation runs (unlike `--vcd`, which buffers events first).
    Vcd(String),
}

impl TraceSinkSpec {
    /// The destination path.
    pub fn path(&self) -> &str {
        match self {
            TraceSinkSpec::Jsonl(path) | TraceSinkSpec::Vcd(path) => path,
        }
    }
}

/// A parsed simulation spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// Selected protocol.
    pub arbiter: ArbiterSel,
    /// Maximum burst size.
    pub burst: u32,
    /// Measured cycles.
    pub cycles: u64,
    /// Warm-up cycles.
    pub warmup: u64,
    /// Seed for generators and the lottery.
    pub seed: u64,
    /// TDMA slots per weight unit.
    pub tdma_block: u32,
    /// Fault-injection rates, if any `fault` line appeared. The plan
    /// seed is the spec's `seed`.
    pub fault: Option<FaultConfig>,
    /// Retry policy from a `retry` line.
    pub retry: Option<RetryPolicy>,
    /// Watchdog timeout in cycles from a `timeout` line.
    pub timeout: Option<u64>,
    /// Failover patience in cycles from a `failover` line; when set the
    /// selected arbiter is wrapped in an [`arbiters::FailoverArbiter`].
    pub failover: Option<u64>,
    /// Independent replica runs with derived seeds (`replicas` key,
    /// default 1). Replica 0 uses the spec seed unchanged, so a
    /// single-replica run is byte-identical to earlier versions.
    pub replicas: u32,
    /// Worker threads for replica fan-out (`jobs` key; `0` = all
    /// available cores). Never affects results, only wall-clock time.
    pub jobs: usize,
    /// Windowed-metrics window length in cycles, from a
    /// `metrics window=<n>` line; when set the report gains a windowed
    /// metrics section. Metrics never change results.
    pub metrics: Option<u64>,
    /// Streaming trace destination from a `trace sink=<kind>:<path>`
    /// line; requires `replicas = 1`.
    pub trace_sink: Option<TraceSinkSpec>,
    /// Simulation kernel from a `kernel = cycle|fast` line (default
    /// `cycle`; `tlm` is accepted as an alias of `fast`). The kernel
    /// only changes wall-clock time, never the report.
    pub kernel: Kernel,
    /// The masters, in declaration order. Every master addresses
    /// slave 0.
    pub masters: Vec<MasterDecl>,
}

impl Default for SimSpec {
    fn default() -> Self {
        SimSpec {
            arbiter: ArbiterSel::Lottery,
            burst: 16,
            cycles: 200_000,
            warmup: 20_000,
            seed: 7,
            tdma_block: 6,
            fault: None,
            retry: None,
            timeout: None,
            failover: None,
            replicas: 1,
            jobs: 0,
            metrics: None,
            trace_sink: None,
            kernel: Kernel::Cycle,
            masters: Vec::new(),
        }
    }
}

/// Error produced when a spec cannot be parsed or realized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpecError {
    /// 1-based line of the offending input (0 for whole-spec errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "spec error: {}", self.message)
        } else {
            write!(f, "spec error at line {}: {}", self.line, self.message)
        }
    }
}

impl Error for ParseSpecError {}

fn err(line: usize, message: impl Into<String>) -> ParseSpecError {
    ParseSpecError { line, message: message.into() }
}

impl SimSpec {
    /// Parses a spec from its text form.
    ///
    /// # Errors
    ///
    /// Returns the first syntax or semantic problem with its line number.
    pub fn parse(text: &str) -> Result<SimSpec, ParseSpecError> {
        let mut spec = SimSpec::default();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("master ") {
                let master = parse_master(line_no, rest)?;
                if spec.masters.iter().any(|m| m.name == master.name) {
                    return Err(err(
                        line_no,
                        format!(
                            "duplicate master name `{}`: master names must be unique",
                            master.name
                        ),
                    ));
                }
                spec.masters.push(master);
                continue;
            }
            if let Some(rest) = line.strip_prefix("fault ") {
                parse_fault(line_no, rest, spec.fault.get_or_insert_with(FaultConfig::default))?;
                continue;
            }
            if let Some(rest) = line.strip_prefix("retry ") {
                spec.retry = Some(parse_retry(line_no, rest)?);
                continue;
            }
            if let Some(rest) = line.strip_prefix("metrics ") {
                spec.metrics = Some(parse_metrics(line_no, rest)?);
                continue;
            }
            if let Some(rest) = line.strip_prefix("trace ") {
                spec.trace_sink = Some(parse_trace(line_no, rest)?);
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(line_no, format!("expected `key = value`, got `{line}`")))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "arbiter" => {
                    let keyword = match value {
                        "round-robin" => "rr",
                        "token-ring" => "token",
                        other => other,
                    };
                    let Some(sel) = ArbiterSel::ALL.into_iter().find(|a| a.keyword() == keyword)
                    else {
                        return Err(err(
                            line_no,
                            format!(
                                "unknown arbiter `{value}` (expected lottery, lottery-dynamic, \
                                 priority, tdma, rr, or token)"
                            ),
                        ));
                    };
                    spec.arbiter = sel;
                }
                "burst" => spec.burst = parse_num(line_no, key, value)?,
                "cycles" => spec.cycles = parse_num(line_no, key, value)?,
                "warmup" => spec.warmup = parse_num(line_no, key, value)?,
                "seed" => spec.seed = parse_num(line_no, key, value)?,
                "tdma-block" => spec.tdma_block = parse_num(line_no, key, value)?,
                "timeout" => spec.timeout = Some(parse_num(line_no, key, value)?),
                "failover" => spec.failover = Some(parse_num(line_no, key, value)?),
                "replicas" => spec.replicas = parse_num(line_no, key, value)?,
                "jobs" => spec.jobs = parse_num(line_no, key, value)?,
                "kernel" => {
                    spec.kernel = Kernel::parse(value).ok_or_else(|| {
                        err(
                            line_no,
                            format!(
                                "unknown kernel `{value}` (expected cycle or fast; tlm is \
                                 accepted as an alias of fast)"
                            ),
                        )
                    })?;
                }
                _ => {
                    return Err(err(
                        line_no,
                        format!(
                            "unknown key `{key}` (expected arbiter, burst, cycles, warmup, seed, \
                             tdma-block, timeout, failover, replicas, jobs, or kernel — or a \
                             `master`, `fault`, `retry`, `metrics`, or `trace` line)"
                        ),
                    ))
                }
            }
        }
        if spec.masters.is_empty() {
            return Err(err(0, "spec declares no masters"));
        }
        if spec.burst == 0 {
            return Err(err(0, "burst must be at least 1"));
        }
        // The fault plan is keyed on the spec seed regardless of the
        // order of `seed` and `fault` lines.
        if let Some(fault) = &mut spec.fault {
            fault.seed = spec.seed;
            fault.validate().map_err(|msg| err(0, msg))?;
        }
        if spec.timeout == Some(0) {
            return Err(err(0, "timeout must be at least 1 cycle"));
        }
        if spec.failover == Some(0) {
            return Err(err(0, "failover patience must be at least 1 cycle"));
        }
        if spec.replicas == 0 {
            return Err(err(0, "replicas must be at least 1"));
        }
        if spec.trace_sink.is_some() && spec.replicas > 1 {
            return Err(err(
                0,
                "`trace sink=` writes one file and therefore requires `replicas = 1`",
            ));
        }
        Ok(spec)
    }

    /// The spec for replica `r`: identical except that the seed (and the
    /// fault-plan seed with it) is re-derived per replica, so replicas
    /// sample independent traffic and fault streams. Replica 0 keeps
    /// the spec seed unchanged and therefore reproduces a
    /// single-replica run exactly.
    pub fn replica(&self, r: u32) -> SimSpec {
        let mut spec = self.clone();
        spec.seed = self.seed.wrapping_add(u64::from(r).wrapping_mul(0x9E37_79B9_97F4_A7C5));
        if let Some(fault) = &mut spec.fault {
            fault.seed = spec.seed;
        }
        spec
    }

    /// Whether the spec configures any fault-injection or recovery
    /// machinery (and the report should show the fault section).
    pub fn has_fault_machinery(&self) -> bool {
        self.fault.is_some()
            || self.retry.is_some()
            || self.timeout.is_some()
            || self.failover.is_some()
    }

    /// The bus configuration the spec selects.
    pub fn bus_config(&self) -> BusConfig {
        BusConfig { max_burst: self.burst, ..BusConfig::default() }
    }

    /// The master names in declaration order (VCD wire names).
    fn master_names(&self) -> Vec<String> {
        self.masters.iter().map(|m| m.name.clone()).collect()
    }
}

fn parse_num<T: std::str::FromStr>(
    line: usize,
    key: &str,
    value: &str,
) -> Result<T, ParseSpecError> {
    value.parse().map_err(|_| err(line, format!("invalid number for `{key}`: `{value}`")))
}

/// Parses a `fault <class> rate=<r> [duration=<d>] [max=<m>]` line into
/// the accumulating config. Classes may repeat; the last rate wins.
fn parse_fault(line: usize, rest: &str, fault: &mut FaultConfig) -> Result<(), ParseSpecError> {
    let mut words = rest.split_whitespace();
    let class = words.next().ok_or_else(|| err(line, "fault line needs a class"))?;
    let mut rate: Option<f64> = None;
    let mut duration: Option<u32> = None;
    let mut max: Option<u32> = None;
    for word in words {
        let (key, value) = word
            .split_once('=')
            .ok_or_else(|| err(line, format!("expected `key=value`, got `{word}`")))?;
        match key {
            "rate" => rate = Some(parse_num(line, key, value)?),
            "duration" => duration = Some(parse_num(line, key, value)?),
            "max" => max = Some(parse_num(line, key, value)?),
            _ => {
                return Err(err(
                    line,
                    format!("unknown fault key `{key}` (expected rate=, duration=, or max=)"),
                ))
            }
        }
    }
    let rate = rate.ok_or_else(|| err(line, format!("fault {class} needs a `rate=`")))?;
    match class {
        "slave-error" => fault.slave_error_rate = rate,
        "slave-outage" => {
            fault.slave_outage_rate = rate;
            if let Some(d) = duration {
                fault.slave_outage_duration = d;
            }
        }
        "grant-drop" => fault.grant_drop_rate = rate,
        "grant-corrupt" => fault.grant_corrupt_rate = rate,
        "master-stall" => {
            fault.master_stall_rate = rate;
            if let Some(m) = max {
                fault.master_stall_max = m;
            }
        }
        _ => {
            return Err(err(
                line,
                format!(
                    "unknown fault class `{class}` (expected slave-error, slave-outage, \
                     grant-drop, grant-corrupt, or master-stall)"
                ),
            ))
        }
    }
    if duration.is_some() && class != "slave-outage" {
        return Err(err(line, format!("`duration=` only applies to slave-outage, not {class}")));
    }
    if max.is_some() && class != "master-stall" {
        return Err(err(line, format!("`max=` only applies to master-stall, not {class}")));
    }
    Ok(())
}

/// Parses a `metrics window=<cycles>` line.
fn parse_metrics(line: usize, rest: &str) -> Result<u64, ParseSpecError> {
    let mut window: Option<u64> = None;
    for word in rest.split_whitespace() {
        let (key, value) = word
            .split_once('=')
            .ok_or_else(|| err(line, format!("expected `key=value`, got `{word}`")))?;
        match key {
            "window" => window = Some(parse_num(line, key, value)?),
            _ => {
                return Err(err(
                    line,
                    format!("unknown metrics key `{key}` (expected window=<cycles>)"),
                ))
            }
        }
    }
    let window = window.ok_or_else(|| err(line, "metrics line needs a `window=`"))?;
    if window == 0 {
        return Err(err(line, "metrics window must be at least 1 cycle"));
    }
    Ok(window)
}

/// Parses a `trace sink=<kind>:<path>` line (`jsonl:` or `vcd:`).
fn parse_trace(line: usize, rest: &str) -> Result<TraceSinkSpec, ParseSpecError> {
    let mut sink: Option<TraceSinkSpec> = None;
    for word in rest.split_whitespace() {
        let (key, value) = word
            .split_once('=')
            .ok_or_else(|| err(line, format!("expected `key=value`, got `{word}`")))?;
        match key {
            "sink" => {
                let (kind, path) = value.split_once(':').ok_or_else(|| {
                    err(line, format!("expected `sink=<kind>:<path>`, got `sink={value}`"))
                })?;
                if path.is_empty() {
                    return Err(err(line, "trace sink needs a non-empty path"));
                }
                sink = Some(match kind {
                    "jsonl" => TraceSinkSpec::Jsonl(path.to_owned()),
                    "vcd" => TraceSinkSpec::Vcd(path.to_owned()),
                    _ => {
                        return Err(err(
                            line,
                            format!("unknown trace sink kind `{kind}` (expected jsonl or vcd)"),
                        ))
                    }
                });
            }
            _ => {
                return Err(err(
                    line,
                    format!("unknown trace key `{key}` (expected sink=<jsonl|vcd>:<path>)"),
                ))
            }
        }
    }
    sink.ok_or_else(|| err(line, "trace line needs a `sink=`"))
}

/// Parses a `retry max=<n> [backoff=<f>x] [base=<cycles>]` line.
fn parse_retry(line: usize, rest: &str) -> Result<RetryPolicy, ParseSpecError> {
    let mut policy = RetryPolicy { max_retries: 0, backoff_base: 1, backoff_factor: 2 };
    let mut saw_max = false;
    for word in rest.split_whitespace() {
        let (key, value) = word
            .split_once('=')
            .ok_or_else(|| err(line, format!("expected `key=value`, got `{word}`")))?;
        match key {
            "max" => {
                policy.max_retries = parse_num(line, key, value)?;
                saw_max = true;
            }
            "backoff" => {
                let factor = value.strip_suffix('x').unwrap_or(value);
                policy.backoff_factor = parse_num(line, key, factor)?;
            }
            "base" => policy.backoff_base = parse_num(line, key, value)?,
            _ => {
                return Err(err(
                    line,
                    format!("unknown retry key `{key}` (expected max=, backoff=, or base=)"),
                ))
            }
        }
    }
    if !saw_max {
        return Err(err(line, "retry line needs a `max=`"));
    }
    policy.validate().map_err(|msg| err(line, msg))?;
    Ok(policy)
}

fn parse_master(line: usize, rest: &str) -> Result<MasterDecl, ParseSpecError> {
    let mut words = rest.split_whitespace();
    let name = words.next().ok_or_else(|| err(line, "master line needs a name"))?.to_owned();
    let mut master =
        MasterDecl { name, weight: 1, load: 0.1, size: 16, arrival: Arrival::Poisson, slave: 0 };
    for word in words {
        if let Some((key, value)) = word.split_once('=') {
            match key {
                "weight" => master.weight = parse_num(line, key, value)?,
                "load" => master.load = parse_num(line, key, value)?,
                "size" => master.size = parse_num(line, key, value)?,
                _ => {
                    return Err(err(
                        line,
                        format!("unknown master key `{key}` (expected weight=, load=, or size=)"),
                    ))
                }
            }
        } else {
            master.arrival = match word {
                "burst" => Arrival::Burst,
                "periodic" => Arrival::Periodic,
                "poisson" => Arrival::Poisson,
                _ => {
                    return Err(err(
                        line,
                        format!(
                            "unknown master token `{word}` (expected weight=, load=, size=, or an \
                             arrival keyword: burst, periodic, or poisson)"
                        ),
                    ))
                }
            };
        }
    }
    if master.size == 0 {
        return Err(err(line, "size must be at least 1"));
    }
    if !(0.0..=1.0).contains(&master.load) || master.load <= 0.0 {
        return Err(err(line, format!("load must be in (0, 1], got {}", master.load)));
    }
    Ok(master)
}

/// Results of one replica's run: the statistics plus the windowed
/// metric samples when the spec enables metrics.
pub(crate) struct SimOutcome {
    pub(crate) stats: socsim::BusStats,
    pub(crate) samples: Option<Vec<WindowSample>>,
}

/// Runs one replica's simulation; the VCD trace path and the spec's
/// streaming trace sink apply only to single-replica runs.
pub(crate) fn simulate(spec: &SimSpec, vcd: Option<&str>) -> Result<SimOutcome, String> {
    let mut builder = SystemBuilder::new(spec.bus_config());
    for (i, master) in spec.masters.iter().enumerate() {
        let generator =
            master.generator(i, master.load, 0).expect("parse_master enforces load > 0");
        builder = builder
            .master(master.name.clone(), generator.build_source(spec.seed.wrapping_add(i as u64)));
    }
    if let Some(fault) = spec.fault {
        builder = builder.faults(fault);
    }
    if let Some(retry) = spec.retry {
        builder = builder.retry_policy(retry);
    }
    if let Some(timeout) = spec.timeout {
        builder = builder.timeout(timeout);
    }
    if let Some(window) = spec.metrics {
        builder = builder.metrics_window(window);
    }
    if let Some(sink_spec) = &spec.trace_sink {
        builder = builder.trace_sink(build_sink(spec, sink_spec)?);
    }
    if vcd.is_some() {
        // Record enough events for the whole measured window (a grant
        // plus a word event per cycle, worst case).
        builder = builder.trace_capacity(3 * spec.cycles as usize);
    }
    let weights = spec.masters.iter().map(|m| m.weight).collect();
    let failover = spec.failover.map(|patience| FailoverDecl { patience, recovery: None });
    let arbiter =
        scenario::arbiter_chain(spec.arbiter, weights, spec.seed, spec.tdma_block, &[], failover)
            .map_err(|e| err(0, format!("cannot build arbiter: {e}")).to_string())?;
    let mut system =
        builder.kernel(spec.kernel).arbiter(arbiter).build().map_err(|e| e.to_string())?;
    system.warm_up(spec.warmup);
    system.run(spec.cycles);
    if let Some(vcd_file) = vcd {
        // The buffered trace is bounded; if it overflowed, say so
        // instead of silently rendering a waveform with a hole in it.
        if system.trace().is_truncated() {
            eprintln!(
                "warning: trace buffer overflowed; {} event(s) dropped, `{vcd_file}` is \
                 incomplete (use `trace sink=vcd:...` to stream without a buffer)",
                system.trace().dropped(),
            );
        }
        let document = socsim::vcd::trace_to_vcd(
            system.trace(),
            &spec.master_names(),
            spec.warmup + spec.cycles,
        );
        std::fs::write(vcd_file, document)
            .map_err(|e| format!("cannot write `{vcd_file}`: {e}"))?;
    }
    if let Some(sink_spec) = &spec.trace_sink {
        system.finish_trace().map_err(|e| format!("cannot write `{}`: {e}", sink_spec.path()))?;
    }
    system.flush_metrics();
    let samples = system.metrics().map(|m| m.samples().to_vec());
    Ok(SimOutcome { stats: system.stats().clone(), samples })
}

/// Opens the spec's streaming trace destination.
fn build_sink(spec: &SimSpec, sink_spec: &TraceSinkSpec) -> Result<Box<dyn TraceSink>, String> {
    let file = std::fs::File::create(sink_spec.path())
        .map_err(|e| format!("cannot create `{}`: {e}", sink_spec.path()))?;
    let writer = std::io::BufWriter::new(file);
    Ok(match sink_spec {
        TraceSinkSpec::Jsonl(_) => Box::new(socsim::JsonlSink::new(writer)),
        TraceSinkSpec::Vcd(_) => {
            Box::new(socsim::VcdSink::new(writer, &spec.master_names(), spec.warmup + spec.cycles))
        }
    })
}

/// Runs a parsed spec and renders its report: the replica-0 report,
/// its windowed-metrics section when the spec enables metrics, and a
/// cross-replica aggregate when `replicas > 1`. Replicas fan out over
/// `spec.jobs` workers and are collected in replica order, so the
/// worker count never changes the report.
///
/// `vcd` names a file for the buffered waveform of a single-replica
/// run; it is ignored when `replicas > 1` (the CLI rejects that
/// combination before running).
///
/// # Errors
///
/// Returns a printable message when the arbiter or system cannot be
/// built or an output file cannot be written.
pub fn run_spec(spec: &SimSpec, vcd: Option<&str>) -> Result<String, String> {
    let render = |outcome: &SimOutcome| {
        let mut report = render_report(spec, &outcome.stats);
        if let (Some(window), Some(samples)) = (spec.metrics, &outcome.samples) {
            report.push_str(&render_metrics(spec, window, samples));
        }
        report
    };
    if spec.replicas == 1 {
        return Ok(render(&simulate(spec, vcd)?));
    }
    let indices: Vec<u32> = (0..spec.replicas).collect();
    let runs =
        socsim::pool::parallel_map(spec.jobs, &indices, |_, &r| simulate(&spec.replica(r), None))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
    // Replica 0 ran with the unchanged seed, so its report is
    // byte-identical to a single-replica run of the same spec.
    let mut report = render(&runs[0]);
    let stats: Vec<socsim::BusStats> = runs.iter().map(|r| r.stats.clone()).collect();
    report.push_str(&render_replica_summary(spec, &stats));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\n\
        # a comment\n\
        arbiter = lottery\n\
        burst = 8\n\
        cycles = 1000   # trailing comment\n\
        warmup = 100\n\
        master cpu weight=4 load=0.3 size=16\n\
        master dsp weight=2 load=0.2 size=16 burst\n\
        master dma weight=1 load=0.1 size=8 periodic\n";

    #[test]
    fn parses_a_full_spec() {
        let spec = SimSpec::parse(SAMPLE).expect("valid spec");
        assert_eq!(spec.arbiter, ArbiterSel::Lottery);
        assert_eq!(spec.burst, 8);
        assert_eq!(spec.cycles, 1000);
        assert_eq!(spec.masters.len(), 3);
        assert_eq!(spec.masters[0].name, "cpu");
        assert_eq!(spec.masters[0].weight, 4);
        assert_eq!(spec.masters[1].arrival, Arrival::Burst);
        assert_eq!(spec.masters[2].size, 8);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = SimSpec::parse("arbiter = bogus\nmaster m weight=1 load=0.1").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("bogus"));

        let e = SimSpec::parse("burst = x\nmaster m load=0.1").unwrap_err();
        assert_eq!(e.line, 1);

        let e = SimSpec::parse("master m load=2.0").unwrap_err();
        assert!(e.message.contains("load"));
    }

    #[test]
    fn replicas_and_jobs_keys_parse() {
        let text = "replicas = 5\njobs = 2\nmaster m load=0.1\n";
        let spec = SimSpec::parse(text).expect("valid");
        assert_eq!(spec.replicas, 5);
        assert_eq!(spec.jobs, 2);
        // Defaults: one replica, auto worker count.
        let spec = SimSpec::parse("master m load=0.1\n").expect("valid");
        assert_eq!(spec.replicas, 1);
        assert_eq!(spec.jobs, 0);
        let e = SimSpec::parse("replicas = 0\nmaster m load=0.1\n").unwrap_err();
        assert!(e.message.contains("replicas"), "{e}");
    }

    #[test]
    fn replica_zero_is_the_base_spec() {
        let text = "seed = 42\nfault slave-error rate=0.01\nmaster m load=0.1\n";
        let spec = SimSpec::parse(text).expect("valid");
        assert_eq!(spec.replica(0), spec);
        let r1 = spec.replica(1);
        assert_ne!(r1.seed, spec.seed);
        assert_eq!(r1.fault.expect("fault kept").seed, r1.seed, "fault plan re-keyed");
        // Distinct replicas draw distinct seeds.
        assert_ne!(spec.replica(1).seed, spec.replica(2).seed);
    }

    #[test]
    fn kernel_key_parses_and_defaults_to_cycle() {
        let spec = SimSpec::parse("kernel = fast\nmaster m load=0.1\n").expect("valid");
        assert_eq!(spec.kernel, Kernel::Fast);

        let spec = SimSpec::parse("kernel = tlm\nmaster m load=0.1\n").expect("valid");
        assert_eq!(spec.kernel, Kernel::Tlm, "tlm stays accepted as an alias of fast");
        assert!(spec.kernel.skips_idle());

        let spec = SimSpec::parse("kernel = cycle\nmaster m load=0.1\n").expect("valid");
        assert_eq!(spec.kernel, Kernel::Cycle);

        let spec = SimSpec::parse("master m load=0.1\n").expect("valid");
        assert_eq!(spec.kernel, Kernel::Cycle, "default is the reference kernel");

        let e = SimSpec::parse("kernel = warp\nmaster m load=0.1\n").unwrap_err();
        assert!(e.message.contains("unknown kernel"), "{e}");
        assert!(e.message.contains("alias of fast"), "error must name the tlm alias: {e}");
    }

    #[test]
    fn empty_spec_rejected() {
        let e = SimSpec::parse("# nothing\n").unwrap_err();
        assert!(e.message.contains("no masters"));
    }

    #[test]
    fn every_arbiter_keyword_and_alias_runs() {
        let keywords = [
            ("lottery", ArbiterSel::Lottery),
            ("lottery-dynamic", ArbiterSel::LotteryDynamic),
            ("priority", ArbiterSel::Priority),
            ("tdma", ArbiterSel::Tdma),
            ("rr", ArbiterSel::RoundRobin),
            ("round-robin", ArbiterSel::RoundRobin),
            ("token", ArbiterSel::TokenRing),
            ("token-ring", ArbiterSel::TokenRing),
        ];
        for (keyword, sel) in keywords {
            let text = format!(
                "arbiter = {keyword}\ncycles = 200\nwarmup = 0\n\
                 master a weight=1 load=0.2 size=8\nmaster b weight=2 load=0.2 size=8\n"
            );
            let spec = SimSpec::parse(&text).expect("valid");
            assert_eq!(spec.arbiter, sel, "{keyword}");
            assert!(run_spec(&spec, None).is_ok(), "{keyword}");
        }
    }

    #[test]
    fn duplicate_priorities_fail_at_build() {
        let text = "arbiter = priority\n\
                    master a weight=1 load=0.1\n\
                    master b weight=1 load=0.1\n";
        let spec = SimSpec::parse(text).expect("parses");
        let e = run_spec(&spec, None).unwrap_err();
        assert!(e.starts_with("spec error: cannot build arbiter: "), "{e}");
    }

    #[test]
    fn duplicate_master_names_are_rejected_with_their_line() {
        let text = "arbiter = lottery\n\
                    master a load=0.1\n\
                    master b load=0.1\n\
                    master a load=0.2\n";
        let e = SimSpec::parse(text).unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        assert!(e.message.contains("duplicate master name `a`"), "{e}");
    }

    #[test]
    fn parses_fault_and_recovery_lines() {
        let text = "seed = 42\n\
                    fault slave-error rate=0.01\n\
                    fault slave-outage rate=0.001 duration=64\n\
                    fault master-stall rate=0.002 max=4\n\
                    retry max=4 backoff=2x base=2\n\
                    timeout = 256\n\
                    failover = 64\n\
                    master cpu weight=4 load=0.3 size=16\n";
        let spec = SimSpec::parse(text).expect("valid spec");
        let fault = spec.fault.expect("fault config present");
        assert_eq!(fault.seed, 42, "fault plan keyed on the spec seed");
        assert_eq!(fault.slave_error_rate, 0.01);
        assert_eq!(fault.slave_outage_rate, 0.001);
        assert_eq!(fault.slave_outage_duration, 64);
        assert_eq!(fault.master_stall_rate, 0.002);
        assert_eq!(fault.master_stall_max, 4);
        assert_eq!(fault.grant_drop_rate, 0.0);
        let retry = spec.retry.expect("retry policy present");
        assert_eq!(retry.max_retries, 4);
        assert_eq!(retry.backoff_factor, 2);
        assert_eq!(retry.backoff_base, 2);
        assert_eq!(spec.timeout, Some(256));
        assert_eq!(spec.failover, Some(64));
        assert!(spec.has_fault_machinery());
    }

    #[test]
    fn fault_free_spec_has_no_machinery() {
        let spec = SimSpec::parse(SAMPLE).expect("valid spec");
        assert!(!spec.has_fault_machinery());
    }

    #[test]
    fn failover_line_wraps_the_arbiter() {
        // A token ring's hop to the next requester outlasts a 2-cycle
        // patience, so the wrapped arbiter trips; without the line the
        // same spec keeps the bare ring and never fails over.
        let base = "arbiter = token-ring\ncycles = 2000\nwarmup = 0\nseed = 5\ntimeout = 500\n\
                    master a weight=1 load=0.40 size=8\n\
                    master b weight=1 load=0.01 size=1 periodic\n\
                    master c weight=1 load=0.30 size=8\n";
        let bare = run_spec(&SimSpec::parse(base).expect("valid"), None).expect("runs");
        assert!(bare.ends_with(" 0 failovers\n"), "{bare}");
        let wrapped = SimSpec::parse(&format!("{base}failover = 2\n")).expect("valid");
        let wrapped = run_spec(&wrapped, None).expect("runs");
        assert!(wrapped.ends_with(" 1 failovers\n"), "{wrapped}");
        assert_ne!(bare, wrapped.replace(" 1 failovers", " 0 failovers"), "backup took over");
    }

    #[test]
    fn fault_line_errors_are_specific() {
        let base = "master m load=0.1\n";
        let e = SimSpec::parse(&format!("fault bogus rate=0.1\n{base}")).unwrap_err();
        assert!(e.message.contains("unknown fault class"), "{e}");

        let e = SimSpec::parse(&format!("fault slave-error\n{base}")).unwrap_err();
        assert!(e.message.contains("needs a `rate=`"), "{e}");

        let e = SimSpec::parse(&format!("fault slave-error rate=1.5\n{base}")).unwrap_err();
        assert!(e.message.contains("[0, 1]"), "{e}");

        let e = SimSpec::parse(&format!("fault grant-drop rate=0.1 max=3\n{base}")).unwrap_err();
        assert!(e.message.contains("only applies to master-stall"), "{e}");

        let e = SimSpec::parse(&format!("retry backoff=2x\n{base}")).unwrap_err();
        assert!(e.message.contains("needs a `max=`"), "{e}");

        let e = SimSpec::parse(&format!("retry max=3 base=0\n{base}")).unwrap_err();
        assert!(e.message.contains("backoff base"), "{e}");

        let e = SimSpec::parse(&format!("timeout = 0\n{base}")).unwrap_err();
        assert!(e.message.contains("timeout"), "{e}");

        let e = SimSpec::parse(&format!("failover = 0\n{base}")).unwrap_err();
        assert!(e.message.contains("patience"), "{e}");
    }

    #[test]
    fn unknown_keys_name_themselves_and_the_accepted_values() {
        let base = "master m load=0.1\n";

        // Top-level key: names the key and lists the accepted ones.
        let e = SimSpec::parse(&format!("bandwith = 3\n{base}")).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("`bandwith`"), "{e}");
        assert!(e.message.contains("arbiter"), "{e}");
        assert!(e.message.contains("kernel"), "{e}");

        // Arbiter value: lists every protocol keyword.
        let e = SimSpec::parse(&format!("arbiter = fifo\n{base}")).unwrap_err();
        assert!(e.message.contains("`fifo`"), "{e}");
        for kind in ["lottery", "lottery-dynamic", "priority", "tdma", "rr", "token"] {
            assert!(e.message.contains(kind), "{e} should mention {kind}");
        }

        // Fault clause keys.
        let e = SimSpec::parse(&format!("fault slave-error rate=0.1 depth=2\n{base}")).unwrap_err();
        assert!(e.message.contains("`depth`"), "{e}");
        assert!(e.message.contains("rate="), "{e}");
        assert!(e.message.contains("duration="), "{e}");
        assert!(e.message.contains("max="), "{e}");

        // Metrics clause keys.
        let e = SimSpec::parse(&format!("metrics span=100\n{base}")).unwrap_err();
        assert!(e.message.contains("`span`"), "{e}");
        assert!(e.message.contains("window=<cycles>"), "{e}");

        // Trace clause keys.
        let e = SimSpec::parse(&format!("trace file=out.vcd\n{base}")).unwrap_err();
        assert!(e.message.contains("`file`"), "{e}");
        assert!(e.message.contains("sink=<jsonl|vcd>:<path>"), "{e}");

        // Retry clause keys.
        let e = SimSpec::parse(&format!("retry max=3 cap=9\n{base}")).unwrap_err();
        assert!(e.message.contains("`cap`"), "{e}");
        assert!(e.message.contains("backoff="), "{e}");

        // Master clause keys and bare tokens.
        let e = SimSpec::parse("master m load=0.1 prio=2\n").unwrap_err();
        assert!(e.message.contains("`prio`"), "{e}");
        assert!(e.message.contains("weight="), "{e}");
        let e = SimSpec::parse("master m load=0.1 bursty\n").unwrap_err();
        assert!(e.message.contains("`bursty`"), "{e}");
        assert!(e.message.contains("periodic"), "{e}");
    }

    #[test]
    fn malformed_clause_shapes_are_actionable() {
        let base = "master m load=0.1\n";

        // A fault line with a bare word instead of key=value.
        let e = SimSpec::parse(&format!("fault slave-error rate\n{base}")).unwrap_err();
        assert!(e.message.contains("expected `key=value`"), "{e}");
        assert_eq!(e.line, 1);

        // Numbers that do not parse name the key and the value.
        let e = SimSpec::parse(&format!("fault slave-error rate=lots\n{base}")).unwrap_err();
        assert!(e.message.contains("`rate`"), "{e}");
        assert!(e.message.contains("`lots`"), "{e}");

        // A metrics line with a malformed pair.
        let e = SimSpec::parse(&format!("metrics window=ten\n{base}")).unwrap_err();
        assert!(e.message.contains("`window`"), "{e}");

        // Errors on later lines carry the right line number.
        let e = SimSpec::parse(&format!("{base}seed = 3\ntrace path=x.vcd\n")).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.message.contains("`path`"), "{e}");
    }

    #[test]
    fn metrics_and_trace_lines_parse() {
        let text = "metrics window=1000\n\
                    trace sink=jsonl:events.jsonl\n\
                    master m load=0.1\n";
        let spec = SimSpec::parse(text).expect("valid");
        assert_eq!(spec.metrics, Some(1000));
        assert_eq!(spec.trace_sink, Some(TraceSinkSpec::Jsonl("events.jsonl".into())));
        assert_eq!(spec.trace_sink.as_ref().unwrap().path(), "events.jsonl");

        let text = "trace sink=vcd:waves.vcd\nmaster m load=0.1\n";
        let spec = SimSpec::parse(text).expect("valid");
        assert_eq!(spec.trace_sink, Some(TraceSinkSpec::Vcd("waves.vcd".into())));

        // Defaults: both observability features off.
        let spec = SimSpec::parse("master m load=0.1\n").expect("valid");
        assert_eq!(spec.metrics, None);
        assert_eq!(spec.trace_sink, None);
    }

    #[test]
    fn metrics_and_trace_line_errors_are_specific() {
        let base = "master m load=0.1\n";
        let e = SimSpec::parse(&format!("metrics window=0\n{base}")).unwrap_err();
        assert!(e.message.contains("at least 1 cycle"), "{e}");

        let e = SimSpec::parse(&format!("metrics depth=3\n{base}")).unwrap_err();
        assert!(e.message.contains("unknown metrics key"), "{e}");

        let e = SimSpec::parse(&format!("metrics\n{base}")).unwrap_err();
        assert!(e.message.contains("expected `key = value`"), "{e}");

        let e = SimSpec::parse(&format!("trace sink=csv:out.csv\n{base}")).unwrap_err();
        assert!(e.message.contains("unknown trace sink kind"), "{e}");

        let e = SimSpec::parse(&format!("trace sink=jsonl\n{base}")).unwrap_err();
        assert!(e.message.contains("sink=<kind>:<path>"), "{e}");

        let e = SimSpec::parse(&format!("trace sink=jsonl:\n{base}")).unwrap_err();
        assert!(e.message.contains("non-empty path"), "{e}");

        let e =
            SimSpec::parse(&format!("trace sink=jsonl:a.jsonl\nreplicas = 2\n{base}")).unwrap_err();
        assert!(e.message.contains("replicas = 1"), "{e}");
    }

    #[test]
    fn generators_match_requested_loads() {
        let spec = SimSpec::parse(SAMPLE).expect("valid");
        for (i, master) in spec.masters.iter().enumerate() {
            let generator = master.generator(i, master.load, 0).expect("positive load");
            let load = generator.offered_load();
            assert!(
                (load - master.load).abs() < master.load * 0.25,
                "{}: generator load {load:.3} vs requested {:.3}",
                master.name,
                master.load,
            );
        }
    }

    #[test]
    fn example_spec_parses() {
        let spec = SimSpec::parse(EXAMPLE_SPEC).expect("example spec stays valid");
        assert_eq!(spec.masters.len(), 3);
        assert!(!spec.has_fault_machinery(), "fault lines ship commented out");
    }

    #[test]
    fn fast_kernel_report_is_byte_identical() {
        let base = "arbiter = lottery\ncycles = 5000\nwarmup = 500\nmetrics window=500\n\
                    master cpu weight=3 load=0.2 size=16 periodic\n\
                    master dma weight=1 load=0.1 size=8 periodic\n";
        let render = |kernel: &str| -> String {
            let spec = SimSpec::parse(&format!("kernel = {kernel}\n{base}")).expect("valid spec");
            run_spec(&spec, None).expect("runs")
        };
        assert_eq!(render("cycle"), render("fast"), "kernels must render identically");
        assert_eq!(render("cycle"), render("tlm"), "tlm is an alias of fast");
    }

    #[test]
    fn replica_fanout_is_deterministic_and_extends_the_report() {
        let text = "arbiter = lottery\ncycles = 4000\nwarmup = 0\nreplicas = 3\n\
                    master cpu weight=3 load=0.4 size=16\n\
                    master dsp weight=1 load=0.3 size=16\n";
        let spec = SimSpec::parse(text).expect("valid");
        let report_with = |jobs: usize| run_spec(&SimSpec { jobs, ..spec.clone() }, None);
        let serial = report_with(1).expect("runs");
        assert_eq!(serial, report_with(3).expect("runs"), "worker count changed the report");
        assert!(serial.contains("replica aggregate over 3 runs"), "{serial}");
    }
}

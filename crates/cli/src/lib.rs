//! # lotterybus-cli — run custom bus simulations from a plain-text spec
//!
//! The `lotterybus-sim` binary reads a small declarative spec describing
//! a single-bus system — arbiter, bus parameters, and one line per
//! master — runs it, and prints the bandwidth/latency report. It is the
//! quickest way to try the LOTTERYBUS protocol on your own workload
//! without writing Rust.
//!
//! ## Spec format
//!
//! Line-oriented; `#` starts a comment. Keys before the first `master`
//! line configure the system:
//!
//! ```text
//! # system keys
//! arbiter  = lottery          # lottery | lottery-dynamic | priority |
//!                             # tdma | rr | token
//! burst    = 16               # max words per grant
//! cycles   = 200000           # measured cycles
//! warmup   = 20000            # discarded warm-up cycles
//! seed     = 7
//! tdma-block = 6              # slots per weight unit (tdma only)
//!
//! # one line per master:
//! #   master <name> weight=<w> load=<words/cycle> size=<words> [burst|periodic]
//! master cpu   weight=4 load=0.30 size=16
//! master dsp   weight=2 load=0.20 size=16 burst
//! master dma   weight=1 load=0.10 size=8  periodic
//! ```
//!
//! `weight` feeds the arbiter (tickets / priority / slot count), `load`
//! is the offered load in words per cycle, `size` the message size, and
//! the optional trailing word selects the arrival process (default:
//! memoryless).
//!
//! ## Fault injection & recovery (optional)
//!
//! ```text
//! # fault <class> rate=<p> [duration=<cycles>] [max=<cycles>]
//! fault slave-error  rate=0.01
//! fault slave-outage rate=0.001 duration=64
//! fault grant-drop   rate=0.005
//! fault grant-corrupt rate=0.005
//! fault master-stall rate=0.002 max=8
//!
//! retry max=4 backoff=2x base=1   # retries per txn, exponential backoff
//! timeout  = 256                  # watchdog: abort wedged transactions
//! failover = 64                   # wrap arbiter in a round-robin failover
//! ```
//!
//! The fault plan is seeded from `seed`, so a faulty run is bit-for-bit
//! reproducible. Reports for specs with any of these lines gain a
//! `faults:` / `recovery:` section; specs without them render exactly as
//! before.
//!
//! ## Observability (optional)
//!
//! ```text
//! metrics window=1000             # windowed metrics section in the report
//! trace sink=jsonl:events.jsonl   # stream trace events as JSON lines
//! trace sink=vcd:waves.vcd        # or stream a VCD waveform directly
//! ```
//!
//! `metrics` samples counters every `window` cycles and appends a
//! windowed-metrics section (per-window utilization and per-master
//! bandwidth-share sparklines) to the report. `trace sink=` streams
//! every bus event to a file as the run progresses — unlike the
//! bounded in-memory trace buffer, a streaming sink never truncates.
//! Neither feature changes simulation results.
//!
//! ## Kernel selection (optional)
//!
//! ```text
//! kernel = fast                   # fast | cycle (default cycle)
//! ```
//!
//! `kernel = fast` runs the event-driven fast-forward kernel, which
//! skips provably idle spans instead of stepping them cycle by cycle.
//! Both kernels produce byte-identical reports (and traces and
//! waveforms); only wall-clock time changes. `kernel = tlm` is
//! accepted as an alias of `fast`.
//!
//! ## Scenarios & fuzzing
//!
//! Two further subcommands drive the declarative robustness subsystem
//! from the `scenario` crate:
//!
//! ```console
//! $ lotterybus-sim scenario scenarios/                 # run the library
//! $ lotterybus-sim scenario a.scenario --kernel fast
//! $ lotterybus-sim fuzz --seed 7 --iters 50 --out tmp/
//! ```
//!
//! `scenario` executes `.scenario` files as one dependency plan and
//! prints a deterministic verdict JSON (exit status reflects whether
//! every verdict matched its `expect` line); `fuzz` runs the seeded
//! scenario fuzzer and writes shrunk reproducers. See
//! [`scenario_cmd`] for the flag reference.
//!
//! ## Design-space search
//!
//! The `search` subcommand turns a `.scenario` file's SLA lines into
//! analytic targets, scans a million-plus (tickets, burst, load)
//! design points through the closed-form predictors of the `analytic`
//! crate, and confirms the best candidates by simulation:
//!
//! ```console
//! $ lotterybus-sim search scenarios/baseline-fairness.scenario
//! $ lotterybus-sim search sla.scenario --points 2000000 --confirm 5
//! ```
//!
//! Exit status 0 means at least one candidate was confirmed; 2 means
//! the targets are infeasible over the scanned space. See
//! [`search_cmd`] for the flag reference.

pub mod report;
pub mod scenario_cmd;
pub mod search_cmd;
pub mod spec;

pub use report::{render_metrics, render_report};
pub use spec::{ParseSpecError, SimSpec, TraceSinkSpec};

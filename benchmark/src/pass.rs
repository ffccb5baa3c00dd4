//! The closed-loop pass runner: a fixed set of clients, each issuing its
//! next operation only after the previous reply, for a fixed wall-clock
//! window. In-process workloads run one client; served workloads run two.
//!
//! Latency is taken around the call into the system only; the benchmark's
//! own checking of the reply happens after the clock stops and is reported
//! separately as the gap between a reply and the client's next send.

use seedb_obs::{CompletedTrace, LogLevel, Logger, Obs, TraceCtx};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Failure reasons each client keeps.
const FAILURES_KEPT: usize = 3;

/// What an operation was, for the per-kind latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// One recommendation (library call or `POST /recommend`).
    Recommend,
    /// One `POST /datasets`.
    Ingest,
}

/// One completed operation.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub kind: OpKind,
    /// Time inside the system under test.
    pub latency: Duration,
    /// Whether the reply passed every check.
    pub ok: bool,
}

/// An operation in flight; see [`ClientLog::begin`].
pub struct Op {
    kind: OpKind,
    started: Instant,
    latency: Option<Duration>,
    /// The operation's trace: live in a traced pass, disabled otherwise.
    pub trace: TraceCtx,
}

impl Op {
    /// Stops the latency clock (idempotent); checking the reply comes
    /// after this.
    pub fn stop(&mut self) {
        self.latency.get_or_insert_with(|| self.started.elapsed());
    }
}

/// Everything one client observed during a pass.
pub struct ClientLog {
    pass_start: Instant,
    obs: Option<Arc<Obs>>,
    label: &'static str,
    last_reply: Option<Instant>,
    pub ops: Vec<OpRecord>,
    /// Per-operation traces with their start offset in the pass.
    pub traces: Vec<(Duration, Arc<CompletedTrace>)>,
    /// Longest time between a reply and this client's next send — the
    /// benchmark's own think time (reply checking, input generation).
    pub max_gap: Duration,
    /// Operations that never got a connection.
    pub connect_failures: u64,
    /// Why the first few failed operations failed, for the report.
    pub failures: Vec<String>,
    /// Named tallies a client keeps beside its operations (cache
    /// dispositions, phase microseconds, rows scanned), summed across
    /// clients by [`PassLog::tally`].
    pub tallies: BTreeMap<&'static str, f64>,
}

impl ClientLog {
    /// Notes why an operation is about to be logged as failed (the first
    /// [`FAILURES_KEPT`] are kept).
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        if self.failures.len() < FAILURES_KEPT {
            self.failures.push(why());
        }
    }

    /// Adds `amount` to the tally `name`.
    pub fn add(&mut self, name: &'static str, amount: f64) {
        *self.tallies.entry(name).or_insert(0.0) += amount;
    }

    /// Starts an operation: opens its trace (traced passes only), notes
    /// the think-time gap, starts the clock.
    pub fn begin(&mut self, kind: OpKind) -> Op {
        let trace = match &self.obs {
            Some(obs) => obs.begin(),
            None => TraceCtx::disabled(),
        };
        let started = Instant::now();
        if let Some(reply) = self.last_reply {
            self.max_gap = self.max_gap.max(started.duration_since(reply));
        }
        Op {
            kind,
            started,
            latency: None,
            trace,
        }
    }

    /// Completes an operation with the verdict of its checks.
    pub fn end(&mut self, mut op: Op, ok: bool) {
        op.stop();
        let latency = op.latency.unwrap_or_default();
        let replied = op.started + latency;
        self.last_reply = Some(replied);
        self.ops.push(OpRecord {
            kind: op.kind,
            latency,
            ok,
        });
        if let Some(obs) = &self.obs {
            let id = format!("op-{}", op.trace.id());
            if let Some(done) = obs.finish(&op.trace, &id, self.label, if ok { 200 } else { 500 }) {
                self.traces
                    .push((op.started.duration_since(self.pass_start), done));
            }
        }
    }
}

/// One closed-loop client. `step` performs the client's next cycle — one
/// operation for most workloads, an ingest followed by its reads for the
/// ingest workload — logging every operation through `log`.
pub trait Client: Send {
    fn step(&mut self, log: &mut ClientLog);
}

/// The merged result of a pass.
pub struct PassLog {
    /// Wall-clock length of the pass, until the last client finished its
    /// final operation.
    pub elapsed: Duration,
    pub clients: Vec<ClientLog>,
}

impl PassLog {
    /// Several passes of one workload as one: elapsed times add, client
    /// logs are kept side by side.
    pub fn merged(passes: Vec<PassLog>) -> PassLog {
        PassLog {
            elapsed: passes.iter().map(|p| p.elapsed).sum(),
            clients: passes.into_iter().flat_map(|p| p.clients).collect(),
        }
    }

    /// Every operation of `kind`, across clients.
    pub fn ops(&self, kind: OpKind) -> impl Iterator<Item = &OpRecord> {
        self.clients
            .iter()
            .flat_map(|c| c.ops.iter())
            .filter(move |o| o.kind == kind)
    }

    /// Latencies of `kind` in milliseconds.
    pub fn latencies_ms(&self, kind: OpKind) -> Vec<f64> {
        self.ops(kind)
            .map(|o| o.latency.as_secs_f64() * 1e3)
            .collect()
    }

    /// `(attempted, failed)` over all operations.
    pub fn totals(&self) -> (u64, u64) {
        let all = self.clients.iter().flat_map(|c| c.ops.iter());
        all.fold((0, 0), |(a, f), o| (a + 1, f + u64::from(!o.ok)))
    }

    /// Longest think-time gap of any client.
    pub fn max_gap(&self) -> Duration {
        self.clients
            .iter()
            .map(|c| c.max_gap)
            .max()
            .unwrap_or_default()
    }

    /// The failure reasons the clients kept.
    pub fn failures(&self) -> impl Iterator<Item = &String> {
        self.clients.iter().flat_map(|c| c.failures.iter())
    }

    /// Connection failures across clients.
    pub fn connect_failures(&self) -> u64 {
        self.clients.iter().map(|c| c.connect_failures).sum()
    }

    /// A named tally summed across clients (0 when nobody kept it).
    pub fn tally(&self, name: &str) -> f64 {
        // Folded from +0.0: an empty `sum()` of floats is −0.0.
        self.clients
            .iter()
            .filter_map(|c| c.tallies.get(name))
            .fold(0.0, |total, amount| total + amount)
    }
}

/// Runs every client in its own thread for `window`, each in a closed
/// loop. `label` names the workload in exported traces; `traced` turns the
/// benchmark's own spans on.
pub fn run_pass(
    clients: Vec<Box<dyn Client + '_>>,
    window: Duration,
    label: &'static str,
    traced: bool,
) -> PassLog {
    // One recorder slot is enough: `Obs::finish` hands the completed
    // trace back and the log keeps it, so the ring is never read.
    let obs = traced.then(|| Arc::new(Obs::new(1, 0, Logger::stderr(LogLevel::Error))));
    let pass_start = Instant::now();
    let deadline = pass_start + window;
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let obs = obs.clone();
                scope.spawn(move || {
                    let mut log = ClientLog {
                        pass_start,
                        obs,
                        label,
                        last_reply: None,
                        ops: Vec::new(),
                        traces: Vec::new(),
                        max_gap: Duration::ZERO,
                        connect_failures: 0,
                        failures: Vec::new(),
                        tallies: BTreeMap::new(),
                    };
                    while Instant::now() < deadline {
                        client.step(&mut log);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a benchmark client panicked"))
            .collect()
    });
    PassLog {
        elapsed: pass_start.elapsed(),
        clients: logs,
    }
}

//! The cross-request micro-batcher.
//!
//! Concurrent `/v1/evaluate` requests do not each pay for their own
//! trip through the evaluation stack. The reactor enqueues an [`EvalJob`]
//! per request; one coalescer thread takes the first job plus whatever
//! is queued behind it, up to [`max_batch_points`], and submits **one**
//! [`CostLedger::evaluate_batch`] per fidelity tier in the window
//! (auto-routed jobs form their own group, split per tier by the router).
//! An idle server never waits; under load, jobs queue behind the running
//! batch and form the next window. [`max_delay`] is an opt-in floor on
//! the window, zero by default. The batch inherits `exec::par_map`
//! parallelism in the simulator while the ledger keeps the accounting
//! counter-exact with a sequential walk, so coalescing changes
//! throughput — never results.
//! Every tier the ledger drives is an `Evaluator`: the simulator and the
//! learned tier directly, the analytical model through a
//! [`LfEvaluator`] borrowed for each ledger call.
//! Every HF charge trains the server's learned tier at the window
//! boundary, on the coalescer thread holding the core lock, so training
//! order is the ledger's commit order regardless of client concurrency.
//!
//! [`max_batch_points`]: BatcherConfig::max_batch_points
//! [`max_delay`]: BatcherConfig::max_delay
//! [`CostLedger::evaluate_batch`]: dse_exec::CostLedger::evaluate_batch

use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use archdse::eval::{AnalyticalLf, SimulatorHf};
use dse_exec::{CostLedger, Fidelity, LearnedTier, LedgerEntry, TierGate, TieredEvaluator};
use dse_mfrl::LfEvaluator;
use dse_obs::trace;
use dse_space::{DesignPoint, DesignSpace};
use serde::{Deserialize, Serialize};

/// Coalescing policy of the micro-batcher.
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Most design points gathered into one submitted batch.
    pub max_batch_points: usize,
    /// Shortest window: how long the coalescer keeps gathering after the
    /// first job. Zero (the default) submits as soon as the queue is empty.
    pub max_delay: Duration,
    /// Pending-request capacity; a full queue answers 503.
    pub queue_capacity: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self { max_batch_points: 64, max_delay: Duration::ZERO, queue_capacity: 128 }
    }
}

/// Lifetime counters of the coalescer, as the JSON `/metrics` reports
/// them. They are read from the two histograms the coalescer observes:
/// `requests` is the queue-wait count, `batches` and `points` the
/// batch-size count and sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoalescerStats {
    /// Evaluate requests that entered the coalescer.
    pub requests: u64,
    /// `evaluate_batch` submissions made on their behalf.
    pub batches: u64,
    /// Design points carried by those submissions.
    pub points: u64,
}

impl CoalescerStats {
    /// Mean requests amortized per submitted batch (0 when idle).
    pub fn amortization(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// One registered ingested workload's private evaluation stack.
///
/// Each upload gets its own LF model (built from the *ingested*
/// profile), its own HF simulator (replaying the *ingested* trace) and
/// its own ledger, so synthetic-benchmark accounting and memoization
/// never mix with real-binary results. The learned tier and the auto
/// router stay synthetic-only: they are trained on the server's
/// template workload, and answering a different binary from that
/// training set would silently misroute — ingested workloads therefore
/// only accept the `"lf"` and `"hf"` tiers (enforced at parse time).
#[derive(Debug)]
pub(crate) struct IngestedCore {
    /// The registered workload id.
    pub name: String,
    /// The characterized profile (kept for `/v1/explore` jobs).
    pub profile: dse_workloads::WorkloadProfile,
    /// The full dynamic trace (kept for `/v1/explore` jobs).
    pub trace: Arc<dse_workloads::Trace>,
    pub hf: SimulatorHf,
    pub lf: AnalyticalLf,
    /// Per-workload ledger: replay/charge accounting scoped to this
    /// binary alone.
    pub ledger: CostLedger,
}

/// The shared evaluation stack: the full fidelity tier stack (analytical
/// LF, the server-lifetime learned tier, the simulator) plus the
/// server-lifetime ledger, locked as one unit so ledger state, evaluator
/// memos and the learned tier's training set can never drift apart.
/// Ingested workloads ride in the same lock with their own
/// [`IngestedCore`] stacks.
#[derive(Debug)]
pub(crate) struct EvalCore {
    pub space: DesignSpace,
    pub hf: SimulatorHf,
    pub lf: AnalyticalLf,
    /// The online mid tier, trained from every HF charge the ledger
    /// commits through this core.
    pub learned: LearnedTier,
    /// Gate for `"auto"` routing.
    pub gate: TierGate,
    pub ledger: CostLedger,
    /// Uploaded workloads, in registration order; an [`EvalJob`]'s
    /// `workload` index points into this list.
    pub ingested: Vec<IngestedCore>,
}

impl EvalCore {
    /// Routes one batch to the evaluator of the *requested* tier through
    /// the ledger.
    fn evaluate(&mut self, fidelity: Fidelity, points: &[DesignPoint]) -> Vec<LedgerEntry> {
        if fidelity == Fidelity::Low {
            return self.ledger.evaluate_batch(&mut LfEvaluator(&self.lf), &self.space, points);
        }
        if fidelity == Fidelity::Learned {
            // Fold any pending HF observations in before answering.
            self.learned.refit();
            return self.ledger.evaluate_batch(&mut self.learned, &self.space, points);
        }
        let entries = self.ledger.evaluate_batch(&mut self.hf, &self.space, points);
        // Window-boundary training: fresh simulator charges become
        // learned-tier observations (deferred to the next refit).
        for (point, entry) in points.iter().zip(&entries) {
            if let LedgerEntry::Charged(ev) = entry {
                self.learned.observe(&self.space, point, ev.cpi);
            }
        }
        entries
    }

    /// Routes one batch through the uncertainty gate: each point is
    /// answered at the cheapest tier whose conformal bound clears the
    /// gate, escalating to the simulator otherwise. Returns the entries
    /// plus the tier that answered each point.
    fn evaluate_auto(&mut self, points: &[DesignPoint]) -> (Vec<LedgerEntry>, Vec<Fidelity>) {
        TieredEvaluator::new(&mut self.learned, &mut self.hf, self.gate).evaluate_batch_routed(
            &mut self.ledger,
            &self.space,
            points,
        )
    }

    /// Routes one batch to a registered ingested workload's private
    /// stack. Only the analytical LF and the trace-replaying HF exist
    /// there — the learned/auto tiers are synthetic-only (see
    /// [`IngestedCore`]) and requests naming them are rejected before
    /// they can reach the queue.
    fn evaluate_ingested(
        &mut self,
        workload: usize,
        fidelity: Fidelity,
        points: &[DesignPoint],
    ) -> Vec<LedgerEntry> {
        let w = &mut self.ingested[workload];
        if fidelity == Fidelity::Low {
            w.ledger.evaluate_batch(&mut LfEvaluator(&w.lf), &self.space, points)
        } else if fidelity == Fidelity::High {
            w.ledger.evaluate_batch(&mut w.hf, &self.space, points)
        } else {
            unreachable!("learned tier requests on ingested workloads are rejected at parse")
        }
    }
}

/// What tier an evaluate request asked for: a fixed tier by name, or
/// `"auto"` — let the gate route each point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TierRequest {
    Fixed(Fidelity),
    Auto,
}

/// Phase durations the coalescer measured for one job, handed back
/// through its [`ReplyFn`] so the request timeline can be completed.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct EvalTiming {
    /// Enqueue → this job's window opening (queueing behind earlier
    /// windows), µs.
    pub queue_us: u64,
    /// Window opening → this job's batch starting to execute (the queue
    /// drain, any `max_delay` floor, earlier groups in the window), µs.
    pub coalesce_us: u64,
    /// The ledger batch execution this job rode, µs (shared by every
    /// member of the batch — the batch ran once for all of them).
    pub exec_us: u64,
}

/// How a finished evaluation gets back to whoever is waiting: the
/// reactor posts a completion (and wakes its poller), tests hand in a
/// plain channel sender. Either way it is a one-shot callback.
pub(crate) type ReplyFn = Box<dyn FnOnce(Vec<(LedgerEntry, Fidelity)>, EvalTiming) + Send>;

/// One evaluate request, queued for the coalescer.
pub(crate) struct EvalJob {
    pub tier: TierRequest,
    /// `None` evaluates the server's synthetic template workload;
    /// `Some(i)` evaluates registered ingested workload `i`.
    pub workload: Option<usize>,
    pub points: Vec<DesignPoint>,
    /// When the request was dispatched; the coalescer observes the queue
    /// wait (dispatch → window submit) per request.
    pub enqueued_at: Instant,
    /// The request's trace id, when it has one — batch span links.
    pub trace: Option<String>,
    /// Rendezvous back to the parked connection; each entry carries the
    /// tier that actually answered it.
    pub reply: ReplyFn,
}

/// The coalescer thread body: gather → submit → reply, until every
/// sender is gone and the queue is drained (graceful shutdown therefore
/// finishes all accepted work).
pub(crate) fn run_coalescer(
    rx: Receiver<EvalJob>,
    core: Arc<Mutex<EvalCore>>,
    config: BatcherConfig,
    batch_points: dse_obs::Histogram,
    queue_wait: dse_obs::Histogram,
) {
    loop {
        // Block until a window opens; a disconnect here means every
        // worker is gone and the queue is empty — time to exit.
        let first = match rx.recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        let window_opened = Instant::now();
        let floor = window_opened + config.max_delay;
        let mut gathered = first.points.len();
        let mut window = vec![first];
        // Take what is already queued; wait for more only until the
        // opt-in floor has passed.
        while gathered < config.max_batch_points {
            let wait = floor.saturating_duration_since(Instant::now());
            let next = if wait.is_zero() { rx.try_recv().ok() } else { rx.recv_timeout(wait).ok() };
            let Some(job) = next else { break };
            gathered += job.points.len();
            window.push(job);
        }
        submit_window(window, window_opened, &core, &batch_points, &queue_wait);
    }
}

/// Submits one gathered window: one ledger batch per (tier, workload)
/// group present — the fixed tiers and the `"auto"` group of the
/// synthetic template workload first, then each ingested workload in
/// registration order — results split back to each waiting request in
/// arrival order.
fn submit_window(
    mut jobs: Vec<EvalJob>,
    window_opened: Instant,
    core: &Mutex<EvalCore>,
    batch_points: &dse_obs::Histogram,
    queue_wait: &dse_obs::Histogram,
) {
    let now = Instant::now();
    for job in &jobs {
        queue_wait.observe_duration(now.saturating_duration_since(job.enqueued_at));
    }
    let tier_rank = |tier: TierRequest| match tier {
        TierRequest::Fixed(f) => Fidelity::STACK.iter().position(|&s| s == f).unwrap_or(0),
        TierRequest::Auto => Fidelity::STACK.len(),
    };
    let mut keys: Vec<(Option<usize>, TierRequest)> =
        jobs.iter().map(|j| (j.workload, j.tier)).collect();
    keys.sort_by_key(|&(workload, tier)| (workload.map_or(0, |i| i + 1), tier_rank(tier)));
    keys.dedup();
    // Each group: its key, its member jobs and their points, merged.
    let groups: Vec<_> = keys
        .into_iter()
        .map(|(workload, tier)| {
            let group: Vec<usize> = (0..jobs.len())
                .filter(|&i| jobs[i].tier == tier && jobs[i].workload == workload)
                .collect();
            let merged: Vec<DesignPoint> =
                group.iter().flat_map(|&i| jobs[i].points.iter().cloned()).collect();
            (workload, tier, group, merged)
        })
        .collect();
    // Account the whole window before any reply leaves: a client that
    // reads `/metrics` right after its response must see itself counted.
    for (_, _, _, merged) in &groups {
        batch_points.observe(merged.len() as f64);
    }
    for (workload, tier, group, merged) in groups {
        if trace::enabled() {
            // Hand the member request ids to the exec layer: the
            // `ledger_batch` event this group produces carries span
            // links back to every request that rode the batch.
            let links: Vec<String> = group.iter().filter_map(|&i| jobs[i].trace.clone()).collect();
            if !links.is_empty() {
                trace::set_batch_links(links);
            }
        }
        let exec_start = Instant::now();
        let answered: Vec<(LedgerEntry, Fidelity)> = {
            let mut core = core.lock().expect("evaluation core poisoned");
            match (workload, tier) {
                (None, TierRequest::Fixed(fidelity)) => core
                    .evaluate(fidelity, &merged)
                    .into_iter()
                    .map(|entry| (entry, fidelity))
                    .collect(),
                (None, TierRequest::Auto) => {
                    let (entries, routes) = core.evaluate_auto(&merged);
                    entries.into_iter().zip(routes).collect()
                }
                (Some(idx), TierRequest::Fixed(fidelity)) => core
                    .evaluate_ingested(idx, fidelity, &merged)
                    .into_iter()
                    .map(|entry| (entry, fidelity))
                    .collect(),
                (Some(_), TierRequest::Auto) => {
                    unreachable!("auto routing on ingested workloads is rejected at parse")
                }
            }
        };
        // Drain any links the exec layer did not consume (tracing may
        // have been toggled mid-window) so they cannot leak into the
        // next group's batch event.
        let _ = trace::take_batch_links();
        let exec_us = exec_start.elapsed().as_micros() as u64;
        let mut cursor = 0usize;
        for &i in &group {
            let take = jobs[i].points.len();
            let slice = answered[cursor..cursor + take].to_vec();
            cursor += take;
            let enqueued = jobs[i].enqueued_at;
            let timing = EvalTiming {
                queue_us: window_opened.saturating_duration_since(enqueued).as_micros() as u64,
                coalesce_us: exec_start
                    .saturating_duration_since(window_opened.max(enqueued))
                    .as_micros() as u64,
                exec_us,
            };
            // Each job sits in exactly one group, so its one-shot reply
            // is consumed exactly once. If the connection died in the
            // meantime the completion is simply dropped on the reactor
            // floor — the evaluation is already accounted.
            let reply: ReplyFn = std::mem::replace(&mut jobs[i].reply, Box::new(|_, _| {}));
            reply(slice, timing);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::{channel, sync_channel, Sender};

    use archdse::Explorer;
    use dse_obs::{Histogram, Registry, LATENCY_BUCKETS_S, SIZE_BUCKETS};
    use dse_workloads::Benchmark;

    use super::*;

    fn core() -> Arc<Mutex<EvalCore>> {
        let explorer = Explorer::for_benchmark(Benchmark::StringSearch).trace_len(500);
        Arc::new(Mutex::new(EvalCore {
            space: explorer.space().clone(),
            hf: explorer.hf_evaluator(),
            lf: explorer.lf_model(),
            learned: LearnedTier::new(LearnedTier::point_features()),
            gate: TierGate::enabled(0.05),
            ledger: CostLedger::new(),
            ingested: Vec::new(),
        }))
    }

    /// An `lf` job for one design code that reports its timing on `done`.
    fn lf_job(core: &Mutex<EvalCore>, code: u64, done: Sender<EvalTiming>) -> EvalJob {
        EvalJob {
            tier: TierRequest::Fixed(Fidelity::Low),
            workload: None,
            points: vec![core.lock().unwrap().space.decode(code)],
            enqueued_at: Instant::now(),
            trace: None,
            reply: Box::new(move |_, timing| {
                let _ = done.send(timing);
            }),
        }
    }

    /// The coalescer's two histograms: batch sizes and queue waits.
    fn histograms() -> (Histogram, Histogram) {
        let registry = Registry::new();
        (registry.histogram("points", SIZE_BUCKETS), registry.histogram("wait", LATENCY_BUCKETS_S))
    }

    /// Queues one single-point job per code, closes the queue, runs the
    /// coalescer until it drains, and returns how many batches it sent.
    fn batches_for(config: BatcherConfig, codes: &[u64]) -> u64 {
        let core = core();
        let (tx, rx) = sync_channel(codes.len());
        let (done, replies) = channel();
        for &code in codes {
            tx.send(lf_job(&core, code, done.clone())).unwrap();
        }
        drop(tx);
        let (batch_points, queue_wait) = histograms();
        run_coalescer(rx, core, config, batch_points.clone(), queue_wait);
        assert_eq!(replies.try_iter().count(), codes.len(), "every job is answered");
        batch_points.count()
    }

    #[test]
    fn a_lone_job_on_an_idle_server_does_not_wait() {
        let core = core();
        let (tx, rx) = sync_channel(4);
        let (batch_points, queue_wait) = histograms();
        let coalescer = {
            let core = Arc::clone(&core);
            let config = BatcherConfig::default();
            std::thread::spawn(move || run_coalescer(rx, core, config, batch_points, queue_wait))
        };
        let (done, replies) = channel();
        tx.send(lf_job(&core, 42, done)).unwrap();
        let timing = replies.recv().unwrap();
        drop(tx);
        coalescer.join().unwrap();
        assert!(timing.coalesce_us < 1_500, "a lone job waited {} µs", timing.coalesce_us);
    }

    #[test]
    fn jobs_already_queued_go_out_as_one_batch() {
        let config = BatcherConfig { max_delay: Duration::ZERO, ..BatcherConfig::default() };
        assert_eq!(batches_for(config, &[1, 2, 3]), 1);
    }

    #[test]
    fn the_points_budget_still_closes_a_window() {
        let config = BatcherConfig { max_batch_points: 2, ..BatcherConfig::default() };
        assert_eq!(batches_for(config, &[1, 2, 3, 4, 5]), 3);
    }
}

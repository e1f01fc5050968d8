//! The traced run: one unit executed job by job with a counting probe
//! and spans around each public call, then each layer's public functions
//! timed in isolation on inputs captured from that unit, and a
//! per-request cost budget that reconciles the two with the untraced
//! end-to-end number.
//!
//! Layers are measured only from outside: the probe observes hooks the
//! simulation already calls, the arrival process is wrapped in a
//! counting adapter, and every time below is a span around, or a loop
//! over, a public function.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::BufRead;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use vmprov_cloudsim::{
    Event, MetricsOptions, Probe, RejectReason, RequestClass, RunMetrics, RunSummary, SimBuilder,
};
use vmprov_core::modeler::SizingDecision;
use vmprov_core::{
    Dispatcher, EwmaRate, InstancePool, InstanceView, ModelerOptions, PerformanceModeler,
    RateEstimator, RoundRobin, SizingCache, SizingInputs, SlidingWindowMle,
};
use vmprov_des::{EventQueue, FelBackend, RngFactory, SimRng, SimTime};
use vmprov_experiments::pool::WorkerPool;
use vmprov_experiments::runner::replication_seed;
use vmprov_experiments::scenario::MAX_VMS;
use vmprov_experiments::{
    run_key, AnalyzerSpec, RunCache, Scenario, DEFAULT_EWMA_ALPHA, DEFAULT_MLE_WINDOW, MAX_WAVE,
};
use vmprov_json::{Json, ToJson};
use vmprov_workloads::{
    generate_piecewise_csv, trace_file_opens, AnyWorkload, ArrivalBatch, ArrivalProcess, CsvReader,
    DatasetReader, StreamReplay, Trace, TraceSpec, DEFAULT_CHUNK,
};

use crate::report::{digest, median, Checks};
use crate::workload::{remove_dir, trace_pieces, Ctx, Measured, Workload};

/// Completions whose (response, service) pair is kept per job.
const PAIR_CAP: usize = 1 << 16;
/// Algorithm 1 inputs kept per job.
const SIZING_CAP: usize = 1 << 12;
/// Trace rows the isolated CSV, generator and set-up timings use.
const SAMPLE_ROWS: usize = 100_000;

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Seconds since the traced run's origin.
    start: f64,
    end: f64,
    parent: Option<usize>,
    thread: String,
}

/// Spans in memory, written out when the benchmark ends.
#[derive(Debug)]
struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            thread: std::thread::current()
                .name()
                .unwrap_or("unnamed")
                .to_string(),
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end = self.origin.elapsed().as_secs_f64();
    }

    /// Appends another log's spans, hanging its roots under `parent`.
    fn adopt(&mut self, other: SpanLog, parent: usize) {
        let offset = self.spans.len();
        for mut span in other.spans {
            span.parent = Some(span.parent.map_or(parent, |p| p + offset));
            self.spans.push(span);
        }
    }

    /// Count, total and self seconds per span name. A span's self time
    /// is its duration minus the part its children cover (children on
    /// parallel workers overlap, so their union counts once).
    fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start, span.end));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (span, mut kids) in self.spans.iter().zip(children) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, f64::NEG_INFINITY);
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let e = out.entry(span.name).or_default();
            e.0 += 1;
            e.1 += span.end - span.start;
            e.2 += span.end - span.start - covered;
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::arr(self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::from(s.name)),
                ("start_s", Json::from(s.start)),
                ("end_s", Json::from(s.end)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                ),
                ("thread", Json::from(s.thread.clone())),
            ])
        }))
    }
}

// ---------------------------------------------------------------------
// Counting probe and arrival-process adapter
// ---------------------------------------------------------------------

/// The simulation's pulls from its arrival process. One simulation
/// thread writes them; the atomics only make the adapter `Send`.
#[derive(Debug, Default)]
struct Pulls {
    /// Pulls that returned at least one batch: the priming pull plus one
    /// per `Batch` event.
    calls: AtomicU64,
    batches: AtomicU64,
}

/// An arrival process that counts what the simulation pulls from it.
struct Counted<W> {
    inner: W,
    pulls: Arc<Pulls>,
}

impl<W> Counted<W> {
    fn record(&self, batches: usize) {
        if batches > 0 {
            self.pulls.calls.fetch_add(1, Relaxed);
            self.pulls.batches.fetch_add(batches as u64, Relaxed);
        }
    }
}

impl<W: ArrivalProcess> ArrivalProcess for Counted<W> {
    fn next_batch(&mut self, rng: &mut SimRng) -> Option<ArrivalBatch> {
        let batch = self.inner.next_batch(rng);
        self.record(usize::from(batch.is_some()));
        batch
    }

    fn next_batch_run(
        &mut self,
        rng: &mut SimRng,
        max: usize,
        out: &mut Vec<ArrivalBatch>,
    ) -> usize {
        let n = self.inner.next_batch_run(rng, max, out);
        self.record(n);
        n
    }

    fn model_rate(&self, t: SimTime) -> f64 {
        self.inner.model_rate(t)
    }

    fn horizon(&self) -> SimTime {
        self.inner.horizon()
    }
}

#[derive(Debug, Default, Clone)]
struct Counts {
    hooks: u64,
    arrivals: u64,
    rejects: u64,
    starts: u64,
    completions: u64,
    boots: u64,
    drains: u64,
    sizings: u64,
    sizing_iters: u64,
    /// Σ over arrivals of the completions pending in the event list.
    pending_sum: u128,
    /// Σ over arrivals of the instances in existence.
    fleet_sum: u128,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.hooks += o.hooks;
        self.arrivals += o.arrivals;
        self.rejects += o.rejects;
        self.starts += o.starts;
        self.completions += o.completions;
        self.boots += o.boots;
        self.drains += o.drains;
        self.sizings += o.sizings;
        self.sizing_iters += o.sizing_iters;
        self.pending_sum += o.pending_sum;
        self.fleet_sum += o.fleet_sum;
    }
}

/// Counts hooks and captures the inputs the isolated timings replay:
/// (response, service) pairs, Algorithm 1 inputs and per-monitor-window
/// arrival counts.
struct CountingProbe {
    monitor_interval: f64,
    next_edge: f64,
    window_arrivals: u64,
    windows: Vec<u64>,
    in_service: u64,
    fleet: u64,
    n: Counts,
    pairs: Vec<(f64, f64)>,
    sizing: Vec<SizingInputs>,
}

impl CountingProbe {
    fn new(monitor_interval: f64) -> CountingProbe {
        CountingProbe {
            monitor_interval,
            next_edge: monitor_interval,
            window_arrivals: 0,
            windows: Vec::new(),
            in_service: 0,
            fleet: 0,
            n: Counts::default(),
            pairs: Vec::new(),
            sizing: Vec::new(),
        }
    }
}

impl Probe for CountingProbe {
    fn on_arrival(&mut self, now: SimTime, _class: RequestClass) {
        let t = now.as_secs();
        while t >= self.next_edge {
            self.windows.push(self.window_arrivals);
            self.window_arrivals = 0;
            self.next_edge += self.monitor_interval;
        }
        self.window_arrivals += 1;
        // Arrivals sit in staged bulk runs; the per-entry events are one
        // completion per request in service (plus a few control ticks).
        self.n.pending_sum += u128::from(self.in_service);
        self.n.fleet_sum += u128::from(self.fleet);
        self.n.arrivals += 1;
        self.n.hooks += 1;
    }
    fn on_reject(&mut self, _now: SimTime, _class: RequestClass, _reason: RejectReason) {
        self.n.rejects += 1;
        self.n.hooks += 1;
    }
    fn on_admit(&mut self, _now: SimTime, _slot: u32, _queue_len: u32) {
        self.n.hooks += 1;
    }
    fn on_service_start(&mut self, _now: SimTime, _slot: u32) {
        self.in_service += 1;
        self.n.starts += 1;
        self.n.hooks += 1;
    }
    fn on_service_complete(&mut self, _now: SimTime, _slot: u32, response: f64, service: f64) {
        self.in_service -= 1;
        if self.pairs.len() < PAIR_CAP {
            self.pairs.push((response, service));
        }
        self.n.completions += 1;
        self.n.hooks += 1;
    }
    fn on_vm_boot(&mut self, _now: SimTime, _slot: u32) {
        self.fleet += 1;
        self.n.boots += 1;
        self.n.hooks += 1;
    }
    fn on_vm_active(&mut self, _now: SimTime, _slot: u32) {
        self.n.hooks += 1;
    }
    fn on_vm_drain(&mut self, _now: SimTime, _slot: u32) {
        self.n.drains += 1;
        self.n.hooks += 1;
    }
    fn on_vm_revive(&mut self, _now: SimTime, _slot: u32) {
        self.n.hooks += 1;
    }
    fn on_vm_destroy(&mut self, _now: SimTime, _slot: u32) {
        self.fleet -= 1;
        self.n.hooks += 1;
    }
    fn on_vm_crash(&mut self, _now: SimTime, _slot: u32, _lost: u64) {
        self.n.hooks += 1;
    }
    fn on_sizing(&mut self, _now: SimTime, decision: &SizingDecision) {
        if self.sizing.len() < SIZING_CAP {
            self.sizing.push(decision.inputs);
        }
        self.n.sizings += 1;
        self.n.sizing_iters += u64::from(decision.iterations);
        self.n.hooks += 1;
    }
}

// ---------------------------------------------------------------------
// The traced unit
// ---------------------------------------------------------------------

/// One traced job's results.
struct JobOut {
    scenario: Scenario,
    rep: u32,
    summary: RunSummary,
    counts: Counts,
    pulls: (u64, u64),
    pairs: Vec<(f64, f64)>,
    sizing: Vec<SizingInputs>,
    windows: Vec<u64>,
    spans: SpanLog,
}

impl JobOut {
    /// Monitor ticks that fed a rate estimator (0 for oracle analyzers).
    fn estimator_observes(&self) -> u64 {
        if self.scenario.analyzer == AnalyzerSpec::Oracle {
            return 0;
        }
        let interval = self.scenario.sim_config().monitor_interval;
        (self.scenario.horizon.as_secs() / interval).floor() as u64
    }

    /// Per-entry event-list entries: one completion per service start,
    /// one `Batch` event per pull, the monitor ticks and the Algorithm 1
    /// evaluations. Arrivals go in bulk and are counted apart.
    fn fel_entries(&self) -> u64 {
        let interval = self.scenario.sim_config().monitor_interval;
        let ticks = (self.scenario.horizon.as_secs() / interval).floor() as u64;
        self.counts.starts + self.pulls.0 + ticks + self.counts.sizings
    }
}

/// Runs one job through `SimBuilder::probe(..).run_probed`, spanning the
/// component build and the run.
fn traced_job(
    scenario: Scenario,
    rep: u32,
    workload: Option<AnyWorkload>,
    origin: Instant,
) -> JobOut {
    let mut log = SpanLog::new(origin);
    let job = log.open("job", None);
    let build = log.open("sim.build", Some(job));
    let cfg = scenario.sim_config();
    let pulls = Arc::new(Pulls::default());
    let probe = CountingProbe::new(cfg.monitor_interval);
    let workload = workload.unwrap_or_else(|| scenario.build_workload());
    let builder = SimBuilder::new(cfg)
        .workload(Counted {
            inner: workload,
            pulls: Arc::clone(&pulls),
        })
        .service(scenario.service_model())
        .policy(scenario.build_policy())
        .dispatcher(scenario.build_dispatcher())
        .shards(scenario.shards)
        .probe(probe);
    log.close(build);
    let run = log.open("sim.run", Some(job));
    let (summary, probe) =
        builder.run_probed(&RngFactory::new(replication_seed(scenario.seed, rep)));
    log.close(run);
    log.close(job);
    let mut windows = probe.windows;
    windows.push(probe.window_arrivals);
    JobOut {
        scenario,
        rep,
        summary,
        counts: probe.n,
        pulls: (pulls.calls.load(Relaxed), pulls.batches.load(Relaxed)),
        pairs: probe.pairs,
        sizing: probe.sizing,
        windows,
        spans: log,
    }
}

/// One `run_batch` call: its span and the pool width behind it.
struct Batch {
    span: usize,
    workers: usize,
}

struct TracedUnit {
    jobs: Vec<JobOut>,
    batches: Vec<Batch>,
    log: SpanLog,
    wall_s: f64,
    /// Batches decoded, highest window, scan waves and trace opens of
    /// the shared scans (replay_grid only).
    scan: Option<(u64, usize, u64, u64)>,
}

fn run_traced_unit(ctx: &Ctx, spec: Option<&TraceSpec>) -> TracedUnit {
    let origin = Instant::now();
    let mut log = SpanLog::new(origin);
    let mut jobs = Vec::new();
    let mut batches = Vec::new();
    let mut scan = None;
    let unit = log.open("unit", None);
    match ctx.workload {
        Workload::WebFig5 | Workload::SciSweep => {
            let pool = WorkerPool::new(ctx.threads);
            let items: Vec<(Scenario, u32)> = ctx
                .scenarios()
                .into_iter()
                .flat_map(|s| (0..ctx.reps()).map(move |rep| (s.clone(), rep)))
                .collect();
            let batch = log.open("pool.run_batch", Some(unit));
            jobs = pool.run_batch(items, move |_, (scenario, rep)| {
                traced_job(scenario, rep, None, origin)
            });
            log.close(batch);
            batches.push(Batch {
                span: batch,
                workers: ctx.threads,
            });
        }
        Workload::ReplayGrid => {
            let spec = spec.expect("scanned trace");
            let grid = ctx.grid(spec);
            let cells: Vec<(Scenario, u32)> = grid
                .analyzers
                .iter()
                .flat_map(|&a| {
                    let scenario = grid.cell_scenario(a);
                    (0..grid.reps).map(move |rep| (scenario.clone(), rep))
                })
                .collect();
            // The grid's wave plan: at most `concurrency` cells per
            // shared scan, on a pool as wide as the widest wave.
            let wave_cap = grid.concurrency.unwrap_or(MAX_WAVE).clamp(1, MAX_WAVE);
            let widest = cells.len().min(wave_cap);
            let pool = (widest > 1).then(|| WorkerPool::new(widest));
            let opens_before = trace_file_opens();
            let (mut decoded, mut max_window, mut waves) = (0u64, 0usize, 0u64);
            for wave in cells.chunks(wave_cap) {
                let span = log.open("trace.replay_shared", Some(unit));
                let (shared, replays) = spec
                    .replay_shared(wave.len())
                    .unwrap_or_else(|e| panic!("trace changed after scan: {e}"));
                log.close(span);
                let items: Vec<_> = wave.iter().cloned().zip(replays).collect();
                let run = move |_, ((scenario, rep), replay): ((Scenario, u32), StreamReplay)| {
                    traced_job(scenario, rep, Some(replay.into()), origin)
                };
                let batch = log.open("pool.run_batch", Some(unit));
                let outs = match &pool {
                    Some(p) => p.run_batch(items, run),
                    None => items.into_iter().map(|i| run(0, i)).collect(),
                };
                log.close(batch);
                batches.push(Batch {
                    span: batch,
                    workers: if pool.is_some() { widest } else { 1 },
                });
                jobs.extend(outs);
                let stats = shared.stats();
                decoded += stats.batches_decoded;
                max_window = max_window.max(stats.max_window);
                waves += 1;
            }
            scan = Some((
                decoded,
                max_window,
                waves,
                trace_file_opens() - opens_before,
            ));
        }
    }
    log.close(unit);
    let wall_s = log.spans[unit].end - log.spans[unit].start;
    for job in &mut jobs {
        let spans = std::mem::replace(&mut job.spans, SpanLog::new(origin));
        // Job roots hang under the batch that ran them.
        let parent = batches
            .iter()
            .rev()
            .find(|b| log.spans[b.span].start <= spans.spans[0].start)
            .map_or(unit, |b| b.span);
        log.adopt(spans, parent);
    }
    TracedUnit {
        jobs,
        batches,
        log,
        wall_s,
        scan,
    }
}

// ---------------------------------------------------------------------
// Isolated timings
// ---------------------------------------------------------------------

/// Median over five repetitions of nanoseconds per operation; `f`
/// performs the work once and returns its operation count.
fn ns_per_op(mut f: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let ops = f();
            start.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Hold model of the per-entry events on the simulation's event list:
/// `depth` completions pending, each pop rescheduled one captured
/// service time ahead, as a finishing request hands its instance to the
/// next.
fn fel_hold_ns(depth: usize, ahead: &[f64], pairs: usize, rng: &mut SimRng) -> f64 {
    let mean = ahead.iter().sum::<f64>() / ahead.len() as f64;
    let mut q: EventQueue<Event> = EventQueue::with_backend(FelBackend::default());
    for slot in 0..depth {
        let at = SimTime::from_secs(mean * rng.uniform01());
        q.schedule(at, Event::Completion { slot: slot as u32 });
    }
    let mut next = 0;
    ns_per_op(|| {
        for _ in 0..pairs {
            let (now, event) = q.pop().expect("the hold queue never empties");
            next = (next + 1) % ahead.len();
            q.schedule(now + ahead[next], black_box(event));
        }
        2 * pairs as u64
    })
}

/// Monotone bulk inserts of `run` arrivals, each drained while the next
/// run is staged — the cadence of one expanded arrival batch.
fn fel_bulk_ns(run: usize, entries: usize, rng: &mut SimRng) -> f64 {
    let mut q: EventQueue<Event> = EventQueue::with_backend(FelBackend::default());
    let mut times = Vec::with_capacity(run);
    let mut base = 0.0;
    let runs = (entries / run).max(2);
    ns_per_op(|| {
        let mut push = |q: &mut EventQueue<Event>| {
            base += 1.0;
            times.clear();
            times.extend((0..run).map(|_| SimTime::from_secs(base + rng.uniform01())));
            times.sort_unstable();
            q.schedule_run(&times, Event::Arrival);
        };
        push(&mut q);
        for _ in 1..runs {
            push(&mut q);
            for _ in 0..run {
                black_box(q.pop());
            }
        }
        while let Some(e) = q.pop() {
            black_box(e);
        }
        2 * (runs * run) as u64
    })
}

/// Pulls every batch out of fresh copies of `make()` until `target`
/// batches have been drawn.
fn gen_ns(
    mut make: impl FnMut() -> AnyWorkload,
    arrival_run: usize,
    target: usize,
    seed: u64,
) -> f64 {
    let mut out = Vec::new();
    ns_per_op(|| {
        let mut batches = 0;
        while batches < target {
            let mut w = make();
            let mut rng = RngFactory::new(seed).stream("iso-gen");
            loop {
                out.clear();
                let n = w.next_batch_run(&mut rng, arrival_run, &mut out);
                if n == 0 {
                    break;
                }
                black_box(&out);
                batches += n;
            }
        }
        batches as u64
    })
}

fn csv_rows(bytes: &[u8]) -> Vec<ArrivalBatch> {
    let mut reader = CsvReader::new(bytes);
    let mut rows = Vec::new();
    while reader
        .read_chunk(&mut rows, DEFAULT_CHUNK)
        .expect("the sample is valid CSV")
        > 0
    {}
    rows
}

fn csv_ns(bytes: &[u8]) -> f64 {
    let mut buf = Vec::with_capacity(DEFAULT_CHUNK);
    ns_per_op(|| {
        let mut reader = CsvReader::new(bytes);
        let mut rows = 0;
        loop {
            buf.clear();
            let n = reader
                .read_chunk(&mut buf, DEFAULT_CHUNK)
                .expect("the sample is valid CSV");
            if n == 0 {
                break;
            }
            black_box(&buf);
            rows += n;
        }
        rows as u64
    })
}

/// A pool exposing the k-full bitmap, as the simulation's does.
struct BitPool {
    views: Vec<InstanceView>,
    bits: Vec<u64>,
}

impl InstancePool for BitPool {
    fn len(&self) -> usize {
        self.views.len()
    }
    fn view(&self, i: usize) -> InstanceView {
        self.views[i]
    }
    fn has_free(&self) -> bool {
        self.bits.iter().any(|&w| w != 0)
    }
    fn room_bits(&self) -> Option<&[u64]> {
        Some(&self.bits)
    }
}

/// Round-robin picks over a `fleet`-wide pool held near full: each pick
/// fills its instance and a random one frees up.
fn pick_ns(fleet: usize, picks: usize, rng: &mut SimRng) -> f64 {
    let view = InstanceView {
        in_system: 0,
        capacity: 1,
        accepting: true,
    };
    let mut pool = BitPool {
        views: vec![view; fleet],
        bits: vec![!0u64; fleet.div_ceil(64)],
    };
    if !fleet.is_multiple_of(64) {
        *pool.bits.last_mut().expect("fleet ≥ 1") = (1u64 << (fleet % 64)) - 1;
    }
    let mut rr = RoundRobin::new();
    ns_per_op(|| {
        for _ in 0..picks {
            if let Some(i) = rr.pick(&pool, 0.0) {
                pool.bits[i >> 6] &= !(1u64 << (i & 63));
            }
            let j = (rng.uniform01() * fleet as f64) as usize % fleet;
            pool.bits[j >> 6] |= 1u64 << (j & 63);
            black_box(&pool.bits);
        }
        picks as u64
    })
}

fn completion_ns(pairs: &[(f64, f64)], options: MetricsOptions, ts: f64, ops: usize) -> f64 {
    let mut metrics = RunMetrics::new(10, options);
    ns_per_op(|| {
        for i in 0..ops {
            let (response, service) = pairs[i % pairs.len()];
            metrics.record_run_completion(black_box(response), service, ts);
        }
        metrics.flush_samples();
        black_box(metrics.response.mean());
        ops as u64
    })
}

/// Algorithm 1 as the adaptive policy calls it: each run's captured
/// input sequence through a fresh cross-tick cache.
fn modeler_ns(seqs: &[Vec<SizingInputs>], scenario: &Scenario, target: usize) -> f64 {
    let options = ModelerOptions {
        backend: scenario.backend,
        ..ModelerOptions::default()
    };
    let modeler = PerformanceModeler::new(scenario.qos(), MAX_VMS, options);
    ns_per_op(|| {
        let mut calls = 0;
        while calls < target {
            for seq in seqs {
                let mut cache = SizingCache::new();
                for inputs in seq {
                    black_box(modeler.required_instances_cached(inputs, &mut cache));
                    calls += 1;
                }
            }
        }
        calls as u64
    })
}

/// Both estimators fed each run's per-window arrival counts, reading the
/// estimate after every observation as the analyzer does.
fn estimator_ns(windows: &[Vec<u64>], interval: f64, target: usize) -> f64 {
    ns_per_op(|| {
        let mut observes = 0;
        while observes < target {
            for seq in windows {
                let mut estimators: [Box<dyn RateEstimator>; 2] = [
                    Box::new(SlidingWindowMle::new(DEFAULT_MLE_WINDOW)),
                    Box::new(EwmaRate::new(DEFAULT_EWMA_ALPHA)),
                ];
                for &arrivals in seq {
                    for e in &mut estimators {
                        e.observe(arrivals, interval);
                        black_box(e.rate());
                        observes += 1;
                    }
                }
            }
        }
        observes as u64
    })
}

/// Key, store and lookup costs (µs) and the mean entry size (bytes) of
/// the run cache over the unit's own jobs.
fn cache_costs(jobs: &[&JobOut], dir: &Path, target: usize) -> (f64, f64, f64, f64) {
    let cache = RunCache::open(dir).expect("create the isolated cache");
    let rounds = target.div_ceil(jobs.len());
    let keys: Vec<u64> = jobs.iter().map(|j| run_key(&j.scenario, j.rep)).collect();
    let key_ns = ns_per_op(|| {
        for _ in 0..rounds {
            for j in jobs {
                black_box(run_key(&j.scenario, j.rep));
            }
        }
        (rounds * jobs.len()) as u64
    });
    let store_ns = ns_per_op(|| {
        for (j, &key) in jobs.iter().zip(&keys) {
            cache.store(key, &j.summary).expect("store a cache entry");
        }
        jobs.len() as u64
    });
    let lookup_ns = ns_per_op(|| {
        for &key in &keys {
            black_box(cache.lookup(key));
        }
        keys.len() as u64
    });
    let bytes: u64 = keys
        .iter()
        .map(|&k| std::fs::metadata(cache.entry_path(k)).map_or(0, |m| m.len()))
        .sum();
    remove_dir(dir);
    (
        key_ns / 1e3,
        store_ns / 1e3,
        lookup_ns / 1e3,
        bytes as f64 / keys.len() as f64,
    )
}

/// Building and running the unit's scenarios for one simulated second.
fn setup_run_us(short: &[(Scenario, AnyWorkload)], target: usize) -> f64 {
    let rounds = target.div_ceil(short.len());
    ns_per_op(|| {
        for _ in 0..rounds {
            for (s, w) in short {
                let summary = SimBuilder::new(s.sim_config())
                    .workload(w.clone())
                    .service(s.service_model())
                    .policy(s.build_policy())
                    .dispatcher(s.build_dispatcher())
                    .run(&RngFactory::new(replication_seed(s.seed, 0)));
                black_box(summary);
            }
        }
        (rounds * short.len()) as u64
    }) / 1e3
}

fn pool_us(threads: usize, jobs: usize) -> f64 {
    let pool = WorkerPool::new(threads);
    ns_per_op(|| {
        let out = pool.run_batch((0..jobs as u64).collect(), |_, x: u64| {
            black_box(x.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        });
        black_box(out);
        jobs as u64
    }) / 1e3
}

/// The trace sample the CSV, generator and set-up timings read: the
/// first rows of the replayed trace, or a generated two-minute trace for
/// the workloads that replay none.
fn trace_sample(ctx: &Ctx) -> Vec<u8> {
    match &ctx.trace_path {
        Some(path) => {
            let file = std::fs::File::open(path).expect("open the trace");
            let mut out = Vec::new();
            for line in std::io::BufReader::new(file)
                .split(b'\n')
                .take(SAMPLE_ROWS + 1)
            {
                out.extend(line.expect("read the trace"));
                out.push(b'\n');
            }
            out
        }
        None => {
            let mut out = Vec::new();
            generate_piecewise_csv(
                &mut out,
                &trace_pieces(3600.0),
                SimTime::from_secs(120.0),
                ctx.seed,
            )
            .expect("write to memory");
            out
        }
    }
}

// ---------------------------------------------------------------------
// Metrics and the budget
// ---------------------------------------------------------------------

/// Per-layer metrics plus the report section of one traced run.
pub struct Traced {
    pub metrics: Vec<(&'static str, Vec<f64>)>,
    pub lines: Vec<String>,
    pub report: Json,
}

pub fn run(ctx: &Ctx, measured: &Measured, checks: &mut Checks) -> Traced {
    let spec = measured.spec.as_ref();
    let traced = run_traced_unit(ctx, spec);
    let summaries: Vec<RunSummary> = traced.jobs.iter().map(|j| j.summary.clone()).collect();
    checks.conservation(&summaries);
    checks.check(digest(&summaries) == digest(&measured.summaries), || {
        "traced summaries differ from the untraced unit's".to_string()
    });

    // Totals over the traced unit.
    let mut n = Counts::default();
    let (mut pull_calls, mut pull_batches, mut fel_entries, mut observes) = (0, 0, 0, 0);
    for job in &traced.jobs {
        n.add(&job.counts);
        pull_calls += job.pulls.0;
        pull_batches += job.pulls.1;
        fel_entries += job.fel_entries();
        observes += job.estimator_observes();
    }
    let offered: u64 = summaries.iter().map(|s| s.offered_requests).sum();
    let per_req = |x: u64| x as f64 / offered.max(1) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let jobs = traced.jobs.len() as u64;
    let adaptive = traced
        .jobs
        .iter()
        .find(|j| !j.sizing.is_empty())
        .map_or_else(|| traced.jobs[0].scenario.clone(), |j| j.scenario.clone());
    let cfg = adaptive.sim_config();

    // Isolated timings on the captured inputs.
    let scale = |x: usize| ((x as f64 * ctx.sizes.iso_scale) as usize).max(16);
    let mut rng = RngFactory::new(ctx.seed).stream("iso");
    let pending_mean = ratio(n.pending_sum as u64, n.arrivals);
    let pairs: Vec<(f64, f64)> = traced
        .jobs
        .iter()
        .flat_map(|j| j.pairs.iter().copied())
        .collect();
    let pairs = if pairs.is_empty() {
        vec![(0.1, 0.1)]
    } else {
        pairs
    };
    let services: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let fel_ns = fel_hold_ns(
        (pending_mean.round() as usize).clamp(1, 1 << 21),
        &services,
        scale(400_000),
        &mut rng,
    );
    let run_len = ratio(n.arrivals, pull_calls).round() as usize;
    let bulk_ns = fel_bulk_ns(run_len.clamp(1, 1 << 16), scale(1 << 20), &mut rng);
    let sample = trace_sample(ctx);
    let rows = csv_rows(&sample);
    let csv_batch_ns = csv_ns(&sample);
    let gen_batch_ns = match ctx.workload {
        Workload::ReplayGrid => {
            let replay =
                StreamReplay::from_trace(Trace::new(rows.clone()).expect("ordered sample"));
            gen_ns(
                || replay.clone().into(),
                cfg.arrival_run as usize,
                scale(200_000),
                ctx.seed,
            )
        }
        _ => gen_ns(
            || adaptive.build_workload(),
            cfg.arrival_run as usize,
            scale(50_000),
            ctx.seed,
        ),
    };
    // The replay's set-up is its scan; the others scan the sample.
    let scan_mb_s = match &ctx.trace_path {
        Some(path) => {
            let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
            let scans: Vec<f64> = measured.setups.iter().map(|t| t.wall_s).collect();
            bytes as f64 / median(&scans) / 1e6
        }
        None => {
            let path = ctx.scratch.join("iso-trace.csv");
            std::fs::write(&path, &sample).expect("write the trace sample");
            let ns = ns_per_op(|| {
                black_box(TraceSpec::scan(&path, DEFAULT_CHUNK).expect("scan the sample"));
                1
            });
            let _ = std::fs::remove_file(&path);
            sample.len() as f64 / ns * 1e3
        }
    };
    let fleet_mean = ratio(n.fleet_sum as u64, n.arrivals);
    let pick = pick_ns(
        (fleet_mean.round() as usize).max(1),
        scale(2_000_000),
        &mut rng,
    );
    let completion = completion_ns(&pairs, cfg.metrics, cfg.qos_ts, scale(4_000_000));
    let seqs: Vec<Vec<SizingInputs>> = traced
        .jobs
        .iter()
        .filter(|j| !j.sizing.is_empty())
        .map(|j| j.sizing.clone())
        .collect();
    let modeler = modeler_ns(&seqs, &adaptive, scale(20_000));
    let windows: Vec<Vec<u64>> = traced.jobs.iter().map(|j| j.windows.clone()).collect();
    let estimator = estimator_ns(&windows, cfg.monitor_interval, scale(400_000));
    let job_refs: Vec<&JobOut> = traced.jobs.iter().take(256).collect();
    let (key_us, store_us, lookup_us, entry_bytes) =
        cache_costs(&job_refs, &ctx.scratch.join("iso-cache"), scale(2_000));
    let pool_job_us = pool_us(ctx.threads, scale(20_000));
    let short: Vec<(Scenario, AnyWorkload)> = match ctx.workload {
        Workload::ReplayGrid => {
            let first: Vec<ArrivalBatch> = rows
                .iter()
                .copied()
                .take_while(|b| b.time.as_secs() < 1.0)
                .collect();
            let replay = StreamReplay::from_trace(Trace::new(first).expect("ordered sample"));
            let grid = ctx.grid(spec.expect("scanned trace"));
            grid.analyzers
                .iter()
                .map(|&a| {
                    let s = grid.cell_scenario(a).with_horizon(SimTime::from_secs(1.0));
                    (s, replay.clone().into())
                })
                .collect()
        }
        _ => ctx
            .scenarios()
            .into_iter()
            .map(|s| {
                let s = s.with_horizon(SimTime::from_secs(1.0));
                let w = s.build_workload();
                (s, w)
            })
            .collect(),
    };
    let setup_us = setup_run_us(&short, scale(60));

    // Pool occupancy over the traced batches.
    let (mut busy, mut capacity, mut tail) = (0.0, 0.0, 0.0);
    for b in &traced.batches {
        let span = &traced.log.spans[b.span];
        let mut last_end: BTreeMap<&str, f64> = BTreeMap::new();
        for job in traced
            .log
            .spans
            .iter()
            .filter(|s| s.name == "job" && s.parent == Some(b.span))
        {
            busy += job.end - job.start;
            let e = last_end.entry(job.thread.as_str()).or_insert(job.end);
            *e = e.max(job.end);
        }
        capacity += b.workers as f64 * (span.end - span.start);
        let first_idle = last_end.values().copied().fold(f64::INFINITY, f64::min);
        if first_idle.is_finite() {
            tail += span.end - first_idle;
        }
    }

    // The budget, per offered request, against the untraced measurement:
    // wall time when serial, process CPU time when the unit is parallel.
    let (decoded, max_window, waves, opens) = traced.scan.unwrap_or((0, 0, 0, 0));
    let rows_budget: Vec<(&str, f64, f64)> = vec![
        ("des.fel", per_req(2 * fel_entries), fel_ns),
        ("des.fel.bulk", per_req(2 * n.arrivals), bulk_ns),
        ("workloads.gen", per_req(pull_batches), gen_batch_ns),
        ("workloads.csv", per_req(decoded), csv_batch_ns),
        ("core.dispatch", per_req(n.arrivals), pick),
        ("core.modeler", per_req(n.sizings), modeler),
        ("core.estimator", per_req(observes), estimator),
        ("cloudsim.metrics", per_req(n.completions), completion),
        ("cloudsim.setup", per_req(jobs), setup_us * 1e3),
        ("experiments.pool", per_req(jobs), pool_job_us * 1e3),
    ];
    let serial = ctx.threads == 1;
    let unit_offered = measured.offered().max(1) as f64;
    let measured_ns = median(
        &measured
            .units
            .iter()
            .map(|u| if serial { u.wall_s } else { u.cpu_s } * 1e9 / unit_offered)
            .collect::<Vec<_>>(),
    );
    let explained: f64 = rows_budget.iter().map(|(_, ops, ns)| ops * ns).sum();
    let residual = measured_ns - explained;
    let untraced_wall = median(&measured.units.iter().map(|u| u.wall_s).collect::<Vec<_>>());
    let overhead_pct = 100.0 * (traced.wall_s - untraced_wall) / untraced_wall;

    let mut lines = vec![format!(
        "budget per offered request ({} basis, {:.2} ns measured):",
        if serial { "wall" } else { "cpu" },
        measured_ns
    )];
    for (layer, ops, ns) in &rows_budget {
        lines.push(format!(
            "  {layer:<18} {ops:>12.6} ops/req × {ns:>12.2} ns/op = {:>9.3} ns/req ({:>5.1}%)",
            ops * ns,
            100.0 * ops * ns / measured_ns
        ));
    }
    lines.push(format!(
        "  {:<18} {residual:>50.3} ns/req ({:>5.1}%)",
        "residual",
        100.0 * residual / measured_ns
    ));
    lines.push("spans (count, total s, self s):".to_string());
    for (name, (count, total, own)) in traced.log.self_times() {
        lines.push(format!("  {name:<20} {count:>7} {total:>10.4} {own:>10.4}"));
    }

    let vm_failures: u64 = summaries.iter().map(|s| s.vm_creation_failures).sum();
    let metrics: Vec<(&'static str, Vec<f64>)> = vec![
        ("des.fel.ns_per_op", vec![fel_ns]),
        ("des.fel.ops_per_req", vec![per_req(2 * fel_entries)]),
        ("des.fel.pending_mean", vec![pending_mean]),
        ("des.fel.bulk_ns_per_op", vec![bulk_ns]),
        ("workloads.gen.ns_per_batch", vec![gen_batch_ns]),
        ("workloads.gen.batches_per_req", vec![per_req(pull_batches)]),
        ("workloads.csv.ns_per_batch", vec![csv_batch_ns]),
        (
            "workloads.shared.decode_amplification",
            vec![spec.map_or(0.0, |s| ratio(decoded, s.batches))],
        ),
        ("workloads.shared.trace_opens", vec![opens as f64]),
        ("workloads.shared.max_window", vec![max_window as f64]),
        ("workloads.scan.mb_per_s", vec![scan_mb_s]),
        ("core.dispatch.ns_per_pick", vec![pick]),
        ("core.modeler.ns_per_call", vec![modeler]),
        ("core.modeler.calls_per_run", vec![ratio(n.sizings, jobs)]),
        (
            "core.modeler.iters_per_call",
            vec![ratio(n.sizing_iters, n.sizings)],
        ),
        ("core.estimator.ns_per_observe", vec![estimator]),
        ("cloudsim.metrics.ns_per_completion", vec![completion]),
        ("cloudsim.events_per_req", vec![per_req(n.hooks)]),
        ("cloudsim.reject_frac", vec![ratio(n.rejects, n.arrivals)]),
        ("cloudsim.setup_us_per_run", vec![setup_us]),
        ("cloudsim.vm_churn_per_run", vec![ratio(n.drains, n.boots)]),
        ("cloudsim.vm_creation_failures", vec![vm_failures as f64]),
        ("experiments.pool.busy_frac", vec![busy / capacity]),
        ("experiments.pool.tail_s", vec![tail]),
        ("experiments.pool.us_per_job", vec![pool_job_us]),
        ("experiments.cache.store_us", vec![store_us]),
        ("experiments.cache.key_us", vec![key_us]),
        ("experiments.cache.lookup_us", vec![lookup_us]),
        ("experiments.cache.bytes_per_entry", vec![entry_bytes]),
        (
            "experiments.cache.corrupt_entries",
            vec![measured.corrupt_entries as f64],
        ),
        ("cloudsim.residual_ns_per_req", vec![residual]),
        ("trace.overhead_pct", vec![overhead_pct]),
    ];

    let report = Json::obj([
        (
            "budget",
            Json::obj([
                ("basis", Json::from(if serial { "wall" } else { "cpu" })),
                ("measured_ns_per_req", Json::from(measured_ns)),
                (
                    "rows",
                    Json::arr(rows_budget.iter().map(|(layer, ops, ns)| {
                        Json::obj([
                            ("layer", Json::from(*layer)),
                            ("ops_per_req", Json::from(*ops)),
                            ("ns_per_op", Json::from(*ns)),
                            ("ns_per_req", Json::from(ops * ns)),
                        ])
                    })),
                ),
                ("residual_ns_per_req", Json::from(residual)),
            ]),
        ),
        (
            "counts",
            Json::obj([
                ("offered", Json::from(offered)),
                ("jobs", Json::from(jobs)),
                ("arrivals", Json::from(n.arrivals)),
                ("completions", Json::from(n.completions)),
                ("pulls", Json::from(pull_calls)),
                ("pulled_batches", Json::from(pull_batches)),
                ("sizings", Json::from(n.sizings)),
                ("scan_waves", Json::from(waves)),
                ("batches_decoded", Json::from(decoded)),
            ]),
        ),
        ("traced_wall_s", Json::from(traced.wall_s)),
        ("spans", traced.log.to_json()),
        (
            "summaries",
            Json::arr(summaries.iter().map(ToJson::to_json)),
        ),
    ]);
    Traced {
        metrics,
        lines,
        report,
    }
}

//! One benchmark run: build the workload's arenas, run its matrix cells
//! for the requested time, check every output, and report metrics.
//!
//! An untraced run reports the end-to-end metrics. A traced run makes
//! one pass over the same cells with spans on and reports the per-layer
//! ledger instead (see `README.md` beside this crate).

use crate::checks::{self, DigestTable};
use crate::gauge::Gauge;
use crate::host;
use crate::ledger::{self, BpCounts, MemCounts};
use crate::spans::Tracer;
use esp_bench::ConfigKey;
use esp_core::{LearnParams, RunReport, SampleParams, SampledRun, SimMode, Simulator};
use esp_obs::NullProbe;
use esp_trace::{espt, PackedWorkload, Workload as _};
use esp_workload::{arena, BenchmarkProfile};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Instructions per workload family at which the benchmark runs.
pub const DEFAULT_SCALE: u64 = 600_000;
/// The workload seed the committed digest table was taken at.
pub const DEFAULT_SEED: u64 = 42;
/// Cold set-ups timed per run on the warm-arena workloads. Set-up is
/// mostly allocation and page faults, which the gauge does not track:
/// with 3 the median spread by 0.12 across ten seeds.
const SETUP_REPS: usize = 9;
/// Arena sets `seed_sweep` derives from its seed argument. Whether a
/// learned cell falls back to a full rerun depends on its arena, and
/// about 7% of the sweep's cells rerun. With 4 sets the per-run rerun
/// share ranged from 2% to 11%, moving the 90th percentile across the
/// rerun cliff; 16 sets (144 arenas) kept it between 6% and 8%.
const SWEEP_SETS: u64 = 16;
/// Largest accepted input, in quarters of the scale: a family's
/// workload may overshoot its instruction target by at most 25%.
const MAX_INPUT_QUARTERS: u64 = 5;
/// Derived seeds tried per family before the smallest input is taken.
const MAX_SEED_TRIES: u64 = 64;
/// The configurations `seed_sweep` runs, and the estimated cells are
/// compared with exact mode on.
const REFERENCE_KEYS: [ConfigKey; 3] = [ConfigKey::Base, ConfigKey::Runahead, ConfigKey::EspNl];

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 9 families × 29 configs, exact mode, warm arenas.
    ExactMatrix,
    /// 9 families × 3 configs × 16 arena sets, sampled + learned mode,
    /// arenas rebuilt cold every pass.
    SeedSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::ExactMatrix, Workload::SeedSweep];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExactMatrix => "exact_matrix",
            Workload::SeedSweep => "seed_sweep",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether cells run sampled + learned on arenas rebuilt cold every
    /// pass (the sweep) rather than exact on warm arenas.
    fn sweep(self) -> bool {
        self == Workload::SeedSweep
    }

    fn configs(self) -> &'static [ConfigKey] {
        match self {
            Workload::ExactMatrix => ConfigKey::all(),
            Workload::SeedSweep => &REFERENCE_KEYS,
        }
    }

    /// The base seed of each arena set a run with argument `seed` builds.
    fn group_bases(self, seed: u64) -> Vec<u64> {
        match self {
            Workload::ExactMatrix => vec![seed],
            Workload::SeedSweep => (0..SWEEP_SETS).map(|k| splitmix64(seed ^ (k + 1))).collect(),
        }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What to run.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// The workload seed argument.
    pub seed: u64,
    /// Minimum measured time; whole matrix passes run until it is spent
    /// (at least one pass).
    pub seconds: f64,
    /// Traced (per-layer) instead of untraced (end-to-end) run.
    pub trace: bool,
    /// Instructions per workload family.
    pub scale: u64,
    /// Committed exact-cell digests, checked when the run is at their
    /// scale.
    pub digests: Option<DigestTable>,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Checked operations: matrix cells, ledger cells, canary cells,
    /// trace round trips.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Provenance: workload, seeds, scale, host.
    pub provenance: String,
    /// The recorded spans (empty for untraced runs).
    pub tracer: Tracer,
}

/// A finished simulation of one cell. Only a few exist at a time, so the
/// variants' size difference does not matter.
#[allow(clippy::large_enum_variant)]
enum Outcome {
    Exact(RunReport),
    Estimated(SampledRun),
}

impl Outcome {
    fn report(&self) -> &RunReport {
        match self {
            Outcome::Exact(r) => r,
            Outcome::Estimated(s) => &s.report,
        }
    }

    fn digest(&self) -> u64 {
        match self {
            Outcome::Exact(r) => checks::report_digest(r),
            Outcome::Estimated(s) => checks::sampled_digest(s),
        }
    }

    fn check(&self) -> Result<(), String> {
        match self {
            Outcome::Exact(r) => checks::check_report(r),
            Outcome::Estimated(s) => checks::check_sampled(s),
        }
    }

    /// Retired + ESP speculative + runahead instructions (effective in
    /// the estimated modes).
    fn instrs(&self) -> u64 {
        let r = self.report();
        r.engine.retired + r.esp.spec_instrs() + r.engine.runahead_instrs
    }
}

fn simulate(key: ConfigKey, w: &PackedWorkload, learned: bool) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let sim = Simulator::new(key.config());
        if learned {
            Outcome::Estimated(sim.run_sampled_learned(
                w,
                SampleParams::default(),
                LearnParams::default(),
            ))
        } else {
            Outcome::Exact(sim.run(w))
        }
    }))
    .map_err(|p| format!("panic: {}", panic_text(&p)))
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".to_string())
}

/// The families at `scale`, in `BenchmarkProfile::all_families` order.
fn families(scale: u64) -> Vec<BenchmarkProfile> {
    BenchmarkProfile::all_families().into_iter().map(|p| p.scaled(scale)).collect()
}

/// One arena set: an arena per family, each at its own seed.
type Group = Vec<Arc<PackedWorkload>>;

/// The input seed of each family for base seed `base`: the first seed
/// derived from `(base, family)` whose workload stays within 25% of its
/// instruction target. Event lengths are heavy-tailed (log-normal,
/// sigma 1.6), so about one seed in ten overshoots the target by up to
/// 2.5x; holding the input size fixed keeps the timings comparable
/// across seeds. After `MAX_SEED_TRIES` the smallest input is taken.
fn input_seeds(profiles: &[BenchmarkProfile], base: u64) -> Vec<u64> {
    profiles
        .iter()
        .enumerate()
        .map(|(f, p)| {
            let limit = p.params().target_instructions / 4 * MAX_INPUT_QUARTERS;
            let mut best = (u64::MAX, base);
            for k in 0..MAX_SEED_TRIES {
                let seed = splitmix64(base ^ splitmix64(((f as u64) << 32) | k));
                let size = p.build(seed).approx_total_instructions();
                if size <= limit {
                    return seed;
                }
                best = best.min((size, seed));
            }
            best.1
        })
        .collect()
}

/// Host time of one cold set-up, split by layer.
#[derive(Clone, Copy, Default)]
struct SetupTime {
    generate: Duration,
    materialise: Duration,
}

impl SetupTime {
    fn total(&self) -> Duration {
        self.generate + self.materialise
    }
}

/// Builds the arenas of `profiles` at `seeds` cold: the memo is emptied
/// first, so every family is generated and materialised (on one thread)
/// again.
fn build_group(
    profiles: &[BenchmarkProfile],
    seeds: &[u64],
    tracer: &mut Tracer,
) -> (Group, SetupTime) {
    arena::reset();
    let mut time = SetupTime::default();
    let mut arenas = Vec::with_capacity(profiles.len());
    for (p, &seed) in profiles.iter().zip(seeds) {
        let (g, dg) = tracer.span("workload.generate", None, |_| arena::generated(p, seed));
        let (w, dm) = tracer.span("trace.materialise", None, |_| arena::packed(p, &g, seed, 1));
        time.generate += dg;
        time.materialise += dm;
        arenas.push(w);
    }
    (arenas, time)
}

/// The order cells run in within one group: families interleaved and
/// configs rotated by family, so neighbouring cells differ in both.
fn cell_order(n_families: usize, n_configs: usize) -> Vec<(usize, usize)> {
    (0..n_families * n_configs)
        .map(|i| {
            let (q, f) = (i / n_families, i % n_families);
            (f, (q + f) % n_configs)
        })
        .collect()
}

/// Failure bookkeeping shared by every phase of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, what: &str, r: Result<(), String>) -> bool {
        self.attempted += 1;
        match r {
            Ok(()) => true,
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                false
            }
        }
    }
}

/// Checks a finished cell: conservation and finiteness, and the same
/// digest as any earlier run of the cell.
fn check_cell(out: &Outcome, cell_id: u32, seen: &mut HashMap<u32, u64>) -> Result<(), String> {
    out.check()?;
    let d = out.digest();
    match seen.insert(cell_id, d) {
        Some(first) if first != d => {
            Err(format!("digest {d:016x} differs from an earlier run's {first:016x}"))
        }
        _ => Ok(()),
    }
}

/// Runs one benchmark run.
pub fn run(spec: &RunSpec) -> RunResult {
    let profiles = families(spec.scale);
    let inputs: Vec<Vec<u64>> = spec
        .workload
        .group_bases(spec.seed)
        .into_iter()
        .map(|b| input_seeds(&profiles, b))
        .collect();
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(spec.trace);
    let (metrics, raw) = if spec.trace {
        (traced(spec, &profiles, &inputs, &mut tally, &mut tracer), String::new())
    } else {
        untraced(spec, &profiles, &inputs, &mut tally)
    };
    arena::reset();
    committed_check(spec, &profiles, &mut tally);
    let provenance = format!(
        "# perfbench workload={} seed={} input_seeds={:?} scale={} trace={} {raw} attempted={} \
         failed={} nproc={} sim_threads=1 cpu=\"{}\"",
        spec.workload.name(),
        spec.seed,
        inputs,
        spec.scale,
        u8::from(spec.trace),
        tally.attempted,
        tally.failures.len(),
        host::nproc(),
        host::cpu_model(),
    );
    RunResult { attempted: tally.attempted, failures: tally.failures, metrics, provenance, tracer }
}

/// Checks exact cells against the committed digests, outside the
/// measured region: the whole table when the run's seed is the table's,
/// otherwise one cell per family with its config rotated by the seed.
fn committed_check(spec: &RunSpec, profiles: &[BenchmarkProfile], tally: &mut Tally) {
    let Some(table) = spec.digests.as_ref().filter(|t| t.scale == spec.scale) else {
        return;
    };
    let keys = ConfigKey::all();
    let (group, _) =
        build_group(profiles, &vec![table.seed; profiles.len()], &mut Tracer::new(false));
    for (f, p) in profiles.iter().enumerate() {
        let rotated = [keys[((spec.seed % keys.len() as u64) as usize + 7 * f) % keys.len()]];
        let cells: &[ConfigKey] = if spec.seed == table.seed { keys } else { &rotated };
        for &key in cells {
            let r = simulate(key, &group[f], false).and_then(|out| {
                out.check()?;
                table.check(p.name(), key, out.digest())
            });
            tally.record(&format!("committed digest {}/{key:?}", p.name()), r);
        }
    }
    arena::reset();
}

/// The end-to-end run: whole passes over the matrix until `seconds` is
/// spent, every cell timed around its `Simulator::run*` call and every
/// time scaled by the host-speed gauge sampled right after it. Returns
/// the metrics and the unscaled figures for the provenance line.
fn untraced(
    spec: &RunSpec,
    profiles: &[BenchmarkProfile],
    inputs: &[Vec<u64>],
    tally: &mut Tally,
) -> (Vec<Metric>, String) {
    let w = spec.workload;
    let keys = w.configs();
    let order = cell_order(profiles.len(), keys.len());
    let mut off = Tracer::new(false);
    let mut gauge = Gauge::new();
    // Each set-up (a rep on the warm-arena workloads, a pass on the
    // sweep) as its group builds: raw seconds and the gauge sample after.
    let mut setups: Vec<Vec<(f64, usize)>> = Vec::new();
    let mut warm: Vec<Group> = Vec::new();
    if !w.sweep() {
        for _ in 0..SETUP_REPS {
            warm.clear();
            let mut builds = Vec::new();
            for seeds in inputs {
                let (g, t) = build_group(profiles, seeds, &mut off);
                builds.push((t.total().as_secs_f64(), gauge.sample()));
                warm.push(g);
            }
            setups.push(builds);
        }
    }

    // Per cell: its raw host time in ms and gauge sample in every pass,
    // and its instructions.
    let n_cells = inputs.len() * order.len();
    let mut times: Vec<Vec<(f64, usize)>> = vec![Vec::new(); n_cells];
    let mut instrs = vec![0u64; n_cells];
    let mut seen: HashMap<u32, u64> = HashMap::new();
    let mut pass_rates: Vec<f64> = Vec::new();
    let start = Instant::now();
    while pass_rates.is_empty() || start.elapsed().as_secs_f64() < spec.seconds {
        let mut builds = Vec::new();
        let (mut pass_cells, mut pass_ms) = (0u32, 0.0);
        for (gi, seeds) in inputs.iter().enumerate() {
            let cold;
            let group = if w.sweep() {
                let (g, t) = build_group(profiles, seeds, &mut off);
                builds.push((t.total().as_secs_f64(), gauge.sample()));
                cold = g;
                &cold
            } else {
                &warm[gi]
            };
            for (pos, &(f, k)) in order.iter().enumerate() {
                let key = keys[k];
                let cell = gi * order.len() + pos;
                let t = Instant::now();
                let out = simulate(key, &group[f], w.sweep());
                let dt = ms(t.elapsed());
                let at = gauge.sample();
                let what = format!("{}/{key:?} seed {}", profiles[f].name(), seeds[f]);
                let r = out.and_then(|out| {
                    check_cell(&out, cell as u32, &mut seen)?;
                    instrs[cell] = out.instrs();
                    Ok(())
                });
                if tally.record(&what, r) {
                    times[cell].push((dt, at));
                    pass_cells += 1;
                    pass_ms += dt;
                }
            }
        }
        if w.sweep() {
            setups.push(builds);
        }
        pass_rates.push(f64::from(pass_cells) / pass_ms * 1e3);
    }
    // Each cell's scaled time is the median over its passes; the gauge
    // has already taken out the host's phase, and the median is robust
    // to what it leaves.
    let (cell_ms, cell_instrs): (Vec<f64>, Vec<u64>) = times
        .iter()
        .zip(&instrs)
        .filter(|(t, _)| !t.is_empty())
        .map(|(t, &n)| {
            let scaled: Vec<f64> = t.iter().map(|&(raw, at)| gauge.scale(raw, at)).collect();
            (host::median(&scaled), n)
        })
        .unzip();
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|builds| builds.iter().map(|&(raw, at)| gauge.scale(raw, at)).sum())
        .collect();
    let raw_setup_s: Vec<f64> =
        setups.iter().map(|b| b.iter().map(|&(raw, _)| raw).sum()).collect();
    let total_s = cell_ms.iter().sum::<f64>() / 1e3;
    let raw_total_s = times.iter().flatten().map(|&(raw, _)| raw).sum::<f64>() / 1e3;
    let raw_cells = times.iter().map(Vec::len).sum::<usize>();
    let metrics = vec![
        Metric { name: "sims_per_s", value: cell_ms.len() as f64 / total_s, unit: "1/s" },
        Metric {
            name: "mips",
            value: cell_instrs.iter().sum::<u64>() as f64 / total_s / 1e6,
            unit: "MIPS",
        },
        Metric { name: "cell_ms_p50", value: host::median(&cell_ms), unit: "ms" },
        Metric { name: "cell_ms_p90", value: host::percentile(&cell_ms, 90.0), unit: "ms" },
        Metric { name: "setup_s", value: host::median(&setup_s), unit: "s" },
        Metric { name: "peak_rss_mib", value: host::peak_rss_mib(), unit: "MiB" },
    ];
    let raw = format!(
        "gauge_ms={:.3} raw_sims_per_s={:.2} raw_setup_s={:.4} pass_sims_per_s={:.2?}",
        gauge.median_ms(),
        raw_cells as f64 / raw_total_s,
        host::median(&raw_setup_s),
        pass_rates
    );
    (metrics, raw)
}

/// Per-layer sums over the cells replayed through `esp-mem`/`esp-branch`.
#[derive(Default)]
struct LedgerSums {
    cells: u64,
    retired: u64,
    mem: MemCounts,
    bp: BpCounts,
    mem_ms: f64,
    bp_ms: f64,
    self_ms: f64,
    closure_failures: u64,
}

/// Sums over the workload's own cells in the traced pass.
#[derive(Default)]
struct CellSums {
    class_ms: [f64; 3],
    esp_windows: u64,
    spec_instrs: u64,
    runahead_instrs: u64,
    lists_discarded: u64,
    events_started: u64,
    replay_prefetches: u64,
    btrains: u64,
    bare_ms: f64,
    spanned_ms: f64,
    learned_cells: u64,
    grains_measured: u64,
    grains_total: u64,
    skip_fraction: f64,
    fallback_rate: f64,
    rerun_cells: u64,
    disabled_cells: u64,
    net_ms: f64,
    cpi_errs: Vec<f64>,
    covered: u64,
}

/// Replays one exact cell's side effects through the layers below the
/// simulator and attributes its time. `cell` is the cell's untraced
/// `Simulator::run` report and host time; `drain_ms` the arena's cursor
/// drain floor.
fn ledger_cell(
    key: ConfigKey,
    w: &PackedWorkload,
    cell: (&RunReport, Duration),
    drain_ms: f64,
    cell_id: u32,
    tracer: &mut Tracer,
    sums: &mut LedgerSums,
) -> Result<(), String> {
    let config = key.config();
    let sim = Simulator::new(config.clone());
    let (logged, _) = tracer.span("sim.run_logged", Some(cell_id), |_| {
        catch_unwind(AssertUnwindSafe(|| sim.run_logged(w, &mut NullProbe)))
    });
    let (report, log) = logged.map_err(|p| format!("panic in run_logged: {}", panic_text(&p)))?;
    if checks::report_digest(&report) != checks::report_digest(cell.0) {
        return Err("run_logged report differs from run".to_string());
    }
    let (mem, mem_t) = fastest(2, || {
        tracer.span("mem.replay", Some(cell_id), |_| ledger::replay_mem(&config, &log))
    });
    let (bp, bp_t) = fastest(2, || {
        tracer.span("branch.replay", Some(cell_id), |_| ledger::replay_bp(&config, &log))
    });
    let (mem, bp) = (mem?, bp?);
    // Net of the harness: the same logs walked with no component called.
    let mem_walk =
        fastest(2, || tracer.span("mem.log_walk", Some(cell_id), |_| ledger::walk(&log.mem_ops))).1;
    let bp_walk =
        fastest(2, || tracer.span("branch.log_walk", Some(cell_id), |_| ledger::walk(&log.bp_ops)))
            .1;
    let (mem_ms, bp_ms) = (ms(mem_t.saturating_sub(mem_walk)), ms(bp_t.saturating_sub(bp_walk)));
    let self_ms = ms(cell.1) - mem_ms - bp_ms - drain_ms;
    sums.cells += 1;
    sums.retired += report.engine.retired;
    sums.mem.add(&mem);
    sums.bp.add(&bp);
    sums.mem_ms += mem_ms;
    sums.bp_ms += bp_ms;
    sums.self_ms += self_ms;
    if self_ms < 0.0 {
        sums.closure_failures += 1;
        eprintln!(
            "# closure failure: cell {cell_id} {key:?}: run {:.3} ms < mem {mem_ms:.3} + branch {bp_ms:.3} + drain {drain_ms:.3}",
            ms(cell.1)
        );
    }
    Ok(())
}

/// Runs `f` `n` times and keeps the fastest result. The work is
/// deterministic, so the repeats only filter host noise.
fn fastest<R>(n: usize, mut f: impl FnMut() -> (R, Duration)) -> (R, Duration) {
    let mut best = f();
    for _ in 1..n {
        let next = f();
        if next.1 < best.1 {
            best = next;
        }
    }
    best
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs a cell twice, once bare and once inside a span, alternating
/// which goes first; both results must agree. Returns the outcome and
/// the bare and spanned host times.
fn timed_pair(
    key: ConfigKey,
    w: &PackedWorkload,
    learned: bool,
    cell_id: u32,
    tracer: &mut Tracer,
) -> Result<(Outcome, Duration, Duration), String> {
    let name = if learned { "sim.run_sampled_learned" } else { "sim.run" };
    let bare = || {
        let t = Instant::now();
        simulate(key, w, learned).map(|o| (o, t.elapsed()))
    };
    let ((out, bare_t), (spanned, spanned_t)) = if cell_id.is_multiple_of(2) {
        let b = bare()?;
        (b, tracer.span(name, Some(cell_id), |_| simulate(key, w, learned)))
    } else {
        let s = tracer.span(name, Some(cell_id), |_| simulate(key, w, learned));
        (bare()?, s)
    };
    if spanned?.digest() != out.digest() {
        return Err("repeated run differs".to_string());
    }
    Ok((out, bare_t, spanned_t))
}

/// Writes every arena to an in-memory ESPT container and reads it back;
/// the import must reproduce the arena. Returns (export, import) time.
fn espt_round_trip(
    p: &BenchmarkProfile,
    seed: u64,
    w: &PackedWorkload,
    scale: u64,
    tracer: &mut Tracer,
) -> Result<(Duration, Duration), String> {
    let meta = espt::TraceMeta { profile: p.name().to_string(), scale, seed };
    let mut bytes = Vec::new();
    let (written, export_t) =
        tracer.span("trace.espt_export", None, |_| espt::write(&mut bytes, &meta, w));
    written.map_err(|e| format!("export: {e}"))?;
    let (read, import_t) = tracer.span("trace.espt_import", None, |_| espt::read(&bytes[..]));
    let (m, back) = read.map_err(|e| format!("import: {e}"))?;
    let same = m == meta
        && back.events() == w.events()
        && back.arena().len() == w.arena().len()
        && (0..w.arena().len()).all(|i| back.arena().event(i) == w.arena().event(i));
    if !same {
        return Err("imported arena differs from the exported one".to_string());
    }
    Ok((export_t, import_t))
}

/// The traced run: one pass over the workload's cells with spans on,
/// plus the exact ledger cells, reported as the per-layer ledger.
fn traced(
    spec: &RunSpec,
    profiles: &[BenchmarkProfile],
    inputs: &[Vec<u64>],
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let w = spec.workload;
    let keys = w.configs();
    let order = cell_order(profiles.len(), keys.len());
    let mut setup = SetupTime::default();
    let (mut export_ms, mut import_ms) = (0.0, 0.0);
    let (mut instrs, mut events, mut arena_bytes) = (0u64, 0u64, 0u64);
    let (mut drain_ms_sum, mut drained) = (0.0, 0u64);
    let mut ledger = LedgerSums::default();
    let mut cells = CellSums::default();
    let mut seen: HashMap<u32, u64> = HashMap::new();

    for (gi, seeds) in inputs.iter().enumerate() {
        let (group, t) = tracer.span("setup", None, |tr| build_group(profiles, seeds, tr)).0;
        setup.generate += t.generate;
        setup.materialise += t.materialise;
        let mut drain_ms = Vec::with_capacity(profiles.len());
        for ((p, a), &seed) in profiles.iter().zip(&group).zip(seeds) {
            instrs += a.arena().total_instructions();
            events += a.events().len() as u64;
            arena_bytes += a.resident_bytes();
            let r = espt_round_trip(p, seed, a, spec.scale, tracer).map(|(e, i)| {
                export_ms += ms(e);
                import_ms += ms(i);
            });
            tally.record(&format!("espt {}/{seed}", p.name()), r);
            let (n, t) =
                fastest(3, || tracer.span("trace.cursor_drain", None, |_| ledger::drain(a)));
            drained += n;
            drain_ms_sum += ms(t);
            drain_ms.push(ms(t));
        }

        for (pos, &(f, k)) in order.iter().enumerate() {
            let key = keys[k];
            let cell_id = (gi * order.len() + pos) as u32;
            let a = &group[f];
            let (r, _) = tracer.span("cell", Some(cell_id), |tracer| {
                let (out, bare, spanned) = timed_pair(key, a, w.sweep(), cell_id, tracer)?;
                check_cell(&out, cell_id, &mut seen)?;
                cells.bare_ms += ms(bare);
                cells.spanned_ms += ms(spanned);
                let rep = out.report();
                let class = match key.config().mode {
                    SimMode::Baseline => 0,
                    SimMode::Runahead { .. } => 1,
                    SimMode::Esp(_) => 2,
                };
                cells.class_ms[class] += ms(bare);
                cells.esp_windows += rep.esp.windows;
                cells.spec_instrs += rep.esp.spec_instrs();
                cells.runahead_instrs += rep.engine.runahead_instrs;
                cells.lists_discarded += rep.esp.lists_discarded;
                cells.events_started += rep.esp.events_started;
                cells.replay_prefetches += rep.replay.iprefetches + rep.replay.dprefetches;
                cells.btrains += rep.replay.btrains;
                match out {
                    Outcome::Exact(report) => ledger_cell(
                        key,
                        a,
                        (&report, bare.min(spanned)),
                        drain_ms[f],
                        cell_id,
                        tracer,
                        &mut ledger,
                    ),
                    Outcome::Estimated(run) => learned_cell(
                        key,
                        a,
                        &run,
                        bare,
                        drain_ms[f],
                        cell_id,
                        tracer,
                        &mut cells,
                        &mut ledger,
                    ),
                }
            });
            tally.record(&format!("traced {}/{key:?} seed {}", profiles[f].name(), seeds[f]), r);
        }
    }

    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    let per = |v: f64, n: u64| if n == 0 { 0.0 } else { v / n as f64 };
    let pct = |a: u64, b: u64| 100.0 * per(a as f64, b);
    let n_led = ledger.cells;
    let errs = &cells.cpi_errs;
    let m = &ledger.mem;
    let b = &ledger.bp;
    vec![
        Metric { name: "workload.generate_ms", value: ms(setup.generate), unit: "ms" },
        Metric { name: "workload.instrs", value: instrs as f64, unit: "count" },
        Metric { name: "workload.events", value: events as f64, unit: "count" },
        Metric { name: "trace.materialise_ms", value: ms(setup.materialise), unit: "ms" },
        Metric { name: "trace.arena_mib", value: mib(arena_bytes), unit: "MiB" },
        Metric { name: "trace.espt_export_ms", value: export_ms, unit: "ms" },
        Metric { name: "trace.espt_import_ms", value: import_ms, unit: "ms" },
        Metric {
            name: "trace.cursor_ns_per_instr",
            value: per(drain_ms_sum * 1e6, drained),
            unit: "ns",
        },
        Metric { name: "mem.replay_ms", value: per(ledger.mem_ms, n_led), unit: "ms" },
        Metric { name: "mem.ns_per_op", value: per(ledger.mem_ms * 1e6, m.ops), unit: "ns" },
        Metric { name: "mem.demand_ops", value: per(m.demand as f64, n_led), unit: "count" },
        Metric { name: "mem.prefetch_ops", value: per(m.prefetch as f64, n_led), unit: "count" },
        Metric {
            name: "mem.prefetch_issued_ratio",
            value: per(m.prefetch_issued as f64, m.prefetch_checked),
            unit: "ratio",
        },
        Metric {
            name: "mem.l1i_mpki",
            value: 1e3 * per(m.l1i_misses as f64, ledger.retired),
            unit: "1/kinstr",
        },
        Metric { name: "mem.l1d_miss_pct", value: pct(m.l1d_misses, m.l1d_accesses), unit: "%" },
        Metric { name: "mem.l2_miss_pct", value: pct(m.l2_misses, m.l2_accesses), unit: "%" },
        Metric { name: "branch.replay_ms", value: per(ledger.bp_ms, n_led), unit: "ms" },
        Metric { name: "branch.ns_per_op", value: per(ledger.bp_ms * 1e6, b.ops), unit: "ns" },
        Metric { name: "branch.predict_ops", value: per(b.predicts as f64, n_led), unit: "count" },
        Metric {
            name: "branch.train_ahead_ops",
            value: per(b.train_ahead as f64, n_led),
            unit: "count",
        },
        Metric {
            name: "branch.checkpoints",
            value: per(b.checkpoints as f64, n_led),
            unit: "count",
        },
        Metric { name: "branch.mispredict_pct", value: pct(b.mispredicts, b.predicts), unit: "%" },
        Metric { name: "uarch.self_ms", value: per(ledger.self_ms, n_led), unit: "ms" },
        Metric {
            name: "uarch.closure_failures",
            value: ledger.closure_failures as f64,
            unit: "count",
        },
        Metric { name: "core.base_class_ms", value: cells.class_ms[0], unit: "ms" },
        Metric { name: "core.runahead_class_ms", value: cells.class_ms[1], unit: "ms" },
        Metric { name: "core.esp_class_ms", value: cells.class_ms[2], unit: "ms" },
        Metric { name: "core.esp_windows", value: cells.esp_windows as f64, unit: "count" },
        Metric { name: "core.spec_instrs", value: cells.spec_instrs as f64, unit: "count" },
        Metric { name: "core.runahead_instrs", value: cells.runahead_instrs as f64, unit: "count" },
        Metric {
            name: "core.lists_discarded_ratio",
            value: per(cells.lists_discarded as f64, cells.events_started),
            unit: "ratio",
        },
        Metric {
            name: "lists.replay_prefetches",
            value: cells.replay_prefetches as f64,
            unit: "count",
        },
        Metric { name: "lists.btrains", value: cells.btrains as f64, unit: "count" },
        Metric {
            name: "sampling.grains_measured",
            value: cells.grains_measured as f64,
            unit: "count",
        },
        Metric {
            name: "sampling.detailed_fraction",
            value: per(2.0 * cells.grains_measured as f64, cells.grains_total),
            unit: "ratio",
        },
        Metric {
            name: "learn.skip_fraction",
            value: per(cells.skip_fraction, cells.learned_cells),
            unit: "ratio",
        },
        Metric {
            name: "learn.fallback_rate",
            value: per(cells.fallback_rate, cells.learned_cells),
            unit: "ratio",
        },
        Metric { name: "learn.rerun_cells", value: cells.rerun_cells as f64, unit: "count" },
        Metric { name: "learn.disabled_cells", value: cells.disabled_cells as f64, unit: "count" },
        Metric { name: "learn.net_ms", value: per(cells.net_ms, cells.learned_cells), unit: "ms" },
        Metric {
            name: "est.cpi_err_max_pct",
            value: errs.iter().copied().fold(0.0, f64::max),
            unit: "%",
        },
        Metric {
            name: "est.cpi_err_mean_pct",
            value: per(errs.iter().sum(), errs.len() as u64),
            unit: "%",
        },
        Metric {
            name: "est.ci_coverage",
            value: per(cells.covered as f64, errs.len() as u64),
            unit: "ratio",
        },
        Metric {
            name: "obs.trace_overhead_pct",
            value: 100.0 * (cells.spanned_ms - cells.bare_ms) / cells.bare_ms,
            unit: "%",
        },
    ]
}

/// The traced extras of one learned cell: the same cell under plain
/// `run_sampled` (for `learn.net_ms`) and, on a reference config, the
/// exact run its estimate is compared with, replayed through the ledger.
#[allow(clippy::too_many_arguments)]
fn learned_cell(
    key: ConfigKey,
    w: &PackedWorkload,
    run: &SampledRun,
    bare: Duration,
    drain_ms: f64,
    cell_id: u32,
    tracer: &mut Tracer,
    cells: &mut CellSums,
    ledger: &mut LedgerSums,
) -> Result<(), String> {
    let sim = Simulator::new(key.config());
    let (sampled, sampled_t) = tracer.span("sim.run_sampled", Some(cell_id), |_| {
        catch_unwind(AssertUnwindSafe(|| sim.run_sampled(w, SampleParams::default())))
    });
    let sampled = sampled.map_err(|p| format!("panic in run_sampled: {}", panic_text(&p)))?;
    checks::check_sampled(&sampled)?;
    let l = run.learned.as_ref().ok_or("learned run without learned stats")?;
    cells.learned_cells += 1;
    cells.grains_measured += run.estimate.grains_measured;
    cells.grains_total += run.estimate.grains_total;
    cells.skip_fraction += l.skip_fraction();
    cells.fallback_rate += l.fallback_rate();
    cells.rerun_cells += u64::from(l.rerun_full);
    cells.disabled_cells += u64::from(l.disabled);
    cells.net_ms += ms(bare) - ms(sampled_t);
    if !REFERENCE_KEYS.contains(&key) {
        return Ok(());
    }
    let (reference, exact_t) = fastest(2, || {
        let t = Instant::now();
        let out = simulate(key, w, false);
        (out, t.elapsed())
    });
    let Outcome::Exact(exact) = reference? else { unreachable!("simulate(.., false) is exact") };
    checks::check_report(&exact)?;
    ledger_cell(key, w, (&exact, exact_t), drain_ms, cell_id, tracer, ledger)?;
    let exact_cpi = exact.busy_cycles() as f64 / exact.engine.retired.max(1) as f64;
    let est = &run.estimate.cpi;
    cells.cpi_errs.push(100.0 * (est.ratio - exact_cpi).abs() / exact_cpi);
    cells.covered += u64::from((est.ratio - exact_cpi).abs() <= est.ci95);
    Ok(())
}

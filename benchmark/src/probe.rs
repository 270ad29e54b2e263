//! Per-layer numbers, all taken from outside: every figure here is a
//! timed call into a crate's public functions, never a counter or span
//! inside the program (those are a later change). One probed pass per
//! workload, run after — never during — the timed repetitions.

use crate::measure::{median, scf_config, timing, Input, Rep, Setup, SETUP_PIECES};
use crate::workloads::Workload;
use hf::diis::Diis;
use hf::fock::engine::SerialBuilder;
use hf::fock::{digest_quartet, kl_bounds, TriSink};
use hf::guess::density_from_orbitals;
use hf::{DensitySet, FockAlgorithm, FockBuilder, FockContext};
use phi_dmpi::{run_world, LeaseMode};
use phi_integrals::boys::boys_batch;
use phi_integrals::{class_index, EriEngine, ShellPair, CLASS_LABELS, N_SPEC, SPEC_LMAX};
use phi_linalg::eigh;
use phi_omp::{PaddedColumns, Schedule, SharedAccumulator, Team};
use std::hint::black_box;
use std::time::Instant;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// In-memory span log of the replayed driver loop: name, parent, start,
/// end. Aggregated (and, with `--out`, written) when the pass ends.
pub struct Spans {
    t0: Instant,
    log: Vec<Span>,
    open: Vec<usize>,
}

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

pub struct SpanTotal {
    pub name: &'static str,
    pub count: usize,
    pub total_s: f64,
    /// Duration minus the part its child spans cover.
    pub self_s: f64,
}

impl Spans {
    fn new() -> Spans {
        Spans { t0: Instant::now(), log: Vec::new(), open: Vec::new() }
    }

    fn enter(&mut self, name: &'static str) {
        let now = self.t0.elapsed().as_secs_f64();
        self.log.push(Span { name, parent: self.open.last().copied(), start_s: now, end_s: now });
        self.open.push(self.log.len() - 1);
    }

    fn exit(&mut self) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.log[id].end_s = self.t0.elapsed().as_secs_f64();
    }

    pub fn totals(&self) -> Vec<SpanTotal> {
        let mut out: Vec<SpanTotal> = Vec::new();
        for (id, sp) in self.log.iter().enumerate() {
            let dur = sp.end_s - sp.start_s;
            let children: f64 =
                self.log.iter().filter(|c| c.parent == Some(id)).map(|c| c.end_s - c.start_s).sum();
            match out.iter_mut().find(|t| t.name == sp.name) {
                Some(t) => {
                    t.count += 1;
                    t.total_s += dur;
                    t.self_s += dur - children;
                }
                None => out.push(SpanTotal {
                    name: sp.name,
                    count: 1,
                    total_s: dur,
                    self_s: dur - children,
                }),
            }
        }
        out
    }
}

/// What the replayed driver loop produced, for the replay-is-the-driver
/// check.
struct Replay {
    wall_s: f64,
    energy_history: Vec<f64>,
    spans: Spans,
}

/// `run_scf`'s loop under its default configuration (DIIS on; no damping,
/// level shift, purification, incremental builds or checkpoints), made of
/// the same public calls in the same order, each under a span.
/// `solve_roothaan` is written out so `eigh` gets a span of its own.
fn replay(wl: &Workload, input: &Input) -> Replay {
    let cfg = scf_config(wl);
    let mut spans = Spans::new();
    let start = Instant::now();
    spans.enter("scf");
    spans.enter("setup");
    let mol = &input.mol;
    // `run_scf` is handed the basis; the rest of the set-up block is its own.
    let Setup { s, h, x, data, d0, .. } = crate::measure::setup(mol, wl);
    let ctx = data.context(&input.basis, cfg.screening_tau);
    let builder = wl.algorithm.builder_with_comm(None, cfg.retry);
    let e_nn = mol.nuclear_repulsion();
    let (n, n_occ) = (input.basis.n_basis(), mol.n_occupied());
    spans.exit();

    let mut d = d0;
    let mut diis = Diis::new(8);
    let mut energy_history = Vec::new();
    for _ in 0..cfg.max_iterations {
        spans.enter("core.fock");
        let gb = builder.build(&ctx, &DensitySet::Restricted(&d));
        spans.exit();
        let mut f = h.add(&gb.g);
        f.symmetrize();
        let e_elec = 0.5 * (d.dot(&h) + d.dot(&f));
        energy_history.push(e_elec + e_nn);

        spans.enter("core.diis");
        let err = Diis::error_vector(&f, &d, &s, &x);
        let f_use = diis.extrapolate(f, err);
        spans.exit();

        spans.enter("core.roothaan");
        let f_prime = f_use.congruence(&x);
        spans.enter("linalg.eigh");
        let eig = eigh(&f_prime);
        spans.exit();
        let c = x.matmul(&eig.vectors);
        spans.exit();

        spans.enter("core.density_update");
        let d_new = density_from_orbitals(&c, n_occ);
        spans.exit();
        let rms = d_new.sub(&d).frobenius_norm() / n as f64;
        d = d_new;
        if rms < cfg.convergence {
            break;
        }
    }
    spans.exit();
    Replay { wall_s: start.elapsed().as_secs_f64(), energy_history, spans }
}

type Quartet = [u32; 4];

/// Canonical quartet loops calling only `FockContext::survives`.
fn screen_sweep(ctx: &FockContext<'_>, mut keep: impl FnMut(Quartet)) -> (f64, u64) {
    let ns = ctx.basis.n_shells();
    let t = Instant::now();
    let mut tests = 0u64;
    for i in 0..ns {
        for j in 0..=i {
            for k in 0..=i {
                for l in 0..=kl_bounds(i, j, k) {
                    tests += 1;
                    if ctx.survives(i, j, k, l) {
                        keep([i as u32, j as u32, k as u32, l as u32]);
                    }
                }
            }
        }
    }
    (t.elapsed().as_secs_f64(), tests)
}

/// Evaluate every listed quartet the way the builders do (buffer clear and
/// resize included), handing each buffer to `digest`.
fn eri_sweep(
    ctx: &FockContext<'_>,
    quartets: &[Quartet],
    engine: &mut EriEngine,
    mut digest: impl FnMut(&Quartet, &[f64]),
) -> f64 {
    let mut buf: Vec<f64> = Vec::new();
    let t = Instant::now();
    for q in quartets {
        let (bra, ket) = pairs_of(ctx, q);
        buf.clear();
        buf.resize(bra.n_fn() * ket.n_fn(), 0.0);
        engine.shell_quartet_pairs(bra, ket, &mut buf);
        digest(q, black_box(&buf));
    }
    t.elapsed().as_secs_f64()
}

fn boys_ns_per_eval(m: usize, ts: &[f64]) -> f64 {
    const PASSES: usize = 40;
    let mut out = vec![0.0; ts.len() * (m + 1)];
    let t = Instant::now();
    for _ in 0..PASSES {
        boys_batch(m, black_box(ts), &mut out);
        black_box(&out);
    }
    t.elapsed().as_secs_f64() * 1e9 / (PASSES * ts.len()) as f64
}

fn timing_of<T>(n: usize, mut f: impl FnMut() -> T, secs: impl Fn(T) -> f64) -> f64 {
    let samples: Vec<f64> = (0..n).map(|_| secs(f())).collect();
    timing(&samples)
}

fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

pub struct Probe {
    pub metrics: Vec<Metric>,
    pub spans: Vec<SpanTotal>,
    pub misses: Vec<String>,
}

struct Out(Vec<Metric>);

impl Out {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push(Metric { name: name.to_string(), unit, value })
    }
}

fn pairs_of<'a>(ctx: &FockContext<'a>, q: &Quartet) -> (&'a ShellPair, &'a ShellPair) {
    (ctx.pairs.pair(q[0] as usize, q[1] as usize), ctx.pairs.pair(q[2] as usize, q[3] as usize))
}

/// The probed pass. `reps` (at least one) are the un-probed reference runs
/// of the same input, `su` its set-up block and `setup_pieces` the piece
/// timings of every set-up sample already taken; the layer sweeps repeat
/// (at least three rounds) until `deadline`.
pub fn probe(
    wl: &Workload,
    input: &Input,
    reps: &[Rep],
    su: &Setup,
    setup_pieces: &[[f64; 7]],
    deadline: Instant,
) -> Probe {
    let mut out = Out(Vec::new());
    // The pieces of the set-up block -> setup_s.
    for (k, name) in SETUP_PIECES[..6].iter().enumerate() {
        let samples: Vec<f64> = setup_pieces.iter().map(|p| p[k]).collect();
        out.put(name, "s", timing(&samples));
    }
    out.put("integrals.shell_pairs_bytes", "bytes", su.data.pairs.bytes() as f64);

    let (spans, misses) = driver_loop(&mut out, wl, input, reps);
    let serial_build_s = fock_layers(&mut out, su, deadline);
    distribution(&mut out, wl, reps, su, serial_build_s);
    Probe { metrics: out.0, spans, misses }
}

/// The replayed driver loop -> scf_wall_s, and the replay-is-the-driver
/// check against the first reference run.
fn driver_loop(
    out: &mut Out,
    wl: &Workload,
    input: &Input,
    reps: &[Rep],
) -> (Vec<SpanTotal>, Vec<String>) {
    let mut misses = Vec::new();
    let rp = replay(wl, input);
    let res = &reps[0].result;
    let same_program = if wl.is_serial() {
        // Serial builds are deterministic: anything short of bit equality
        // means the layer numbers describe a different program.
        rp.energy_history.len() == res.energy_history.len()
            && rp
                .energy_history
                .iter()
                .zip(&res.energy_history)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    } else {
        // Reduction order is DLB-dependent on parallel builders.
        rp.energy_history.len().abs_diff(res.iterations) <= 1
            && (rp.energy_history.last().copied().unwrap_or(f64::NAN) - res.energy).abs()
                <= crate::measure::ENERGY_TOL
    };
    if !same_program {
        misses.push(format!(
            "replayed loop is not the driver: {} iterations ending at {:.12}, run_scf took {} ending at {:.12}",
            rp.energy_history.len(),
            rp.energy_history.last().copied().unwrap_or(f64::NAN),
            res.iterations,
            res.energy
        ));
    }
    let spans = rp.spans.totals();
    let span_s = |name: &str| spans.iter().find(|t| t.name == name).map_or(0.0, |t| t.total_s);
    let unattributed = spans.iter().find(|t| t.name == "scf").map_or(0.0, |t| t.self_s);
    out.put("core.diis_s", "s", span_s("core.diis"));
    out.put("core.roothaan_s", "s", span_s("core.roothaan"));
    out.put("linalg.eigh_s", "s", span_s("linalg.eigh"));
    out.put("core.density_update_s", "s", span_s("core.density_update"));
    out.put("core.fock_share", "ratio", span_s("core.fock") / rp.wall_s);
    out.put("core.scf_closure", "ratio", 1.0 - unattributed / rp.wall_s);
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    out.put("probe.overhead_ratio", "ratio", rp.wall_s / timing(&walls));

    (spans, misses)
}

/// The layers of a Fock build, serial, on the core-guess density ->
/// fock_build_s. Returns the `SerialBuilder` build time they should add
/// up to.
fn fock_layers(out: &mut Out, su: &Setup, deadline: Instant) -> f64 {
    let ctx = &su.context();
    let n = su.basis.n_basis();
    let mut survivors: Vec<Quartet> = Vec::new();
    let (_, tests) = screen_sweep(ctx, |q| survivors.push(q));
    let mut bins: Vec<Vec<Quartet>> = vec![Vec::new(); N_SPEC];
    for q in &survivors {
        let (bra, ket) = pairs_of(ctx, q);
        let c = class_index(bra.l_sum, ket.l_sum);
        // Both systems stop at d shells, so the generic slot stays empty.
        assert!(c < N_SPEC, "quartet beyond the specialized classes");
        bins[c].push(*q);
    }
    // Per round: the three layers and the build they should add up to, back
    // to back, so drift between rounds cancels in the differences below.
    let (mut screen, mut eri, mut digest, mut build, mut gap, mut generic) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut class_s: Vec<Vec<f64>> = vec![Vec::new(); N_SPEC];
    let mut prim_quartets = 0u64;
    let mut class_prims = [0u64; N_SPEC];
    let mut rounds = 0;
    while rounds < 3 || Instant::now() < deadline {
        rounds += 1;
        let mut kept = 0u64;
        let screen_r = screen_sweep(ctx, |_| kept += 1).0;
        black_box(kept);
        let mut engine = ctx.engine();
        let eri_r = eri_sweep(ctx, &survivors, &mut engine, |_, _| ());
        prim_quartets = engine.prim_quartets_computed();
        let mut g = vec![0.0; n * n];
        let mut sink = TriSink { buf: &mut g, n };
        let digested_r = eri_sweep(ctx, &survivors, &mut ctx.engine(), |q, buf| {
            let [i, j, k, l] = q.map(|x| x as usize);
            digest_quartet(&su.basis, i, j, k, l, buf, &su.d0, &mut sink)
        });
        black_box(&g);
        let build_r = SerialBuilder.build(ctx, &DensitySet::Restricted(&su.d0)).stats.seconds;
        screen.push(screen_r);
        eri.push(eri_r);
        digest.push(digested_r - eri_r);
        build.push(build_r);
        gap.push(build_r - screen_r - digested_r);
        generic.push(eri_sweep(ctx, &survivors, &mut EriEngine::generic_only(), |_, _| ()) / eri_r);
        for (c, bin) in bins.iter().enumerate().filter(|(_, b)| !b.is_empty()) {
            let mut engine = ctx.engine();
            class_s[c].push(eri_sweep(ctx, bin, &mut engine, |_, _| ()));
            class_prims[c] = engine.prim_quartets_computed();
        }
    }
    let (screen_s, eri_s, digest_s, build_s, gap_s) =
        (timing(&screen), timing(&eri), median(&digest), timing(&build), median(&gap));
    let nq = survivors.len() as f64;
    out.put("integrals.screen_sweep_s", "s", screen_s);
    out.put("integrals.screen_tests", "count", tests as f64);
    out.put("integrals.screen_ns_per_test", "ns", screen_s * 1e9 / tests as f64);
    out.put("integrals.survivor_ratio", "ratio", nq / tests as f64);
    out.put("integrals.eri_sweep_s", "s", eri_s);
    out.put("integrals.eri_quartets", "count", nq);
    out.put("integrals.eri_prim_quartets", "count", prim_quartets as f64);
    out.put("integrals.eri_ns_per_quartet", "ns", eri_s * 1e9 / nq);
    out.put("integrals.eri_ns_per_prim_quartet", "ns", eri_s * 1e9 / prim_quartets as f64);
    out.put("integrals.eri_generic_ratio", "ratio", median(&generic));
    for c in 0..N_SPEC {
        let count = bins[c].len() as f64;
        let ns_per = if bins[c].is_empty() { 0.0 } else { timing(&class_s[c]) * 1e9 / count };
        out.put(&format!("integrals.eri.class.{}.quartets", CLASS_LABELS[c]), "count", count);
        out.put(&format!("integrals.eri.class.{}.ns_per_quartet", CLASS_LABELS[c]), "ns", ns_per);
    }
    out.put("core.digest_sweep_s", "s", digest_s);
    out.put("core.digest_ns_per_quartet", "ns", digest_s * 1e9 / nq);
    out.put("core.fock_build_s", "s", build_s);
    out.put("core.fock_unattributed_s", "s", gap_s);
    out.put("core.fock_closure", "ratio", 1.0 - gap_s / build_s);

    // --- Boys function -> the ERI sweep ----------------------------------
    // Timed on arguments the workload's own surviving primitive quartets
    // have (T = rho |P - Q|^2 from the public pair data of every stride-th
    // survivor), not on a synthetic grid: the series branch below T = 35
    // costs several times the asymptotic one, so the mix decides the answer.
    let stride = (survivors.len() / 256).max(1);
    let mut ts: Vec<f64> = Vec::new();
    for q in survivors.iter().step_by(stride) {
        let (bra, ket) = pairs_of(ctx, q);
        for a in &bra.prims {
            for b in &ket.prims {
                let r2: f64 = (0..3).map(|x| (a.center[x] - b.center[x]).powi(2)).sum();
                ts.push(a.p * b.p / (a.p + b.p) * r2);
            }
        }
    }
    let boys = [0usize, 4, 8].map(|mm| boys_ns_per_eval(mm, &ts));
    out.put("integrals.boys_ns_per_eval_m0", "ns", boys[0]);
    out.put("integrals.boys_ns_per_eval_m4", "ns", boys[1]);
    out.put("integrals.boys_ns_per_eval_m8", "ns", boys[2]);
    // Computed, not measured: primitive quartets per class times the cost
    // of one F_0..F_m stripe, m = l_bra + l_ket, interpolated in m.
    let boys_s: f64 = (0..N_SPEC)
        .map(|c| {
            let mm = (c / (SPEC_LMAX + 1) + c % (SPEC_LMAX + 1)) as f64;
            let ns_per_eval = if mm <= 4.0 {
                boys[0] + (boys[1] - boys[0]) * mm / 4.0
            } else {
                boys[1] + (boys[2] - boys[1]) * (mm - 4.0) / 4.0
            };
            class_prims[c] as f64 * ns_per_eval * 1e-9
        })
        .sum();
    out.put("integrals.boys_share_est", "ratio", boys_s / eri_s);

    build_s
}

/// The workload's own builds against the serial one, and the `dmpi` and
/// `omp` primitives at the workload's topology and counts.
fn distribution(out: &mut Out, wl: &Workload, reps: &[Rep], su: &Setup, build_s: f64) {
    let res = &reps[0].result;
    let (n, ns) = (su.basis.n_basis(), su.basis.n_shells());
    let n_pair = ns * (ns + 1) / 2;
    let (ranks, threads) = wl.topology();
    let stats = &res.fock_stats[0];
    let builds: Vec<f64> = reps.iter().flat_map(|r| r.build_seconds()).collect();
    let wl_build_s = timing(&builds);
    let workers = wl.workers() as f64;
    let overhead_s = wl_build_s - build_s / workers;
    out.put("core.scf.iterations", "count", res.iterations as f64);
    out.put("core.fock.peak_rank_bytes", "bytes", reps[0].peak_rank_bytes() as f64);
    out.put("core.fock.quartets_computed", "count", stats.quartets_computed as f64);
    out.put("core.fock.quartets_screened", "count", stats.quartets_screened as f64);
    out.put("core.fock.dlb_tasks", "count", stats.dlb_tasks as f64);
    out.put("core.fock.dlb_calls", "count", stats.dlb_calls as f64);
    out.put("core.fock.flushes", "count", stats.flushes as f64);
    out.put("core.fock.speedup_vs_serial", "ratio", build_s / wl_build_s);
    out.put("core.fock.parallel_efficiency", "ratio", build_s / wl_build_s / workers);
    out.put("core.fock.parallel_overhead_s", "s", overhead_s);

    // dmpi and omp primitives at the workload's own topology and counts;
    // on a serial workload they are the 1 x 1 floor and explain nothing.
    let spawn_s = timing_of(15, || timed(|| drop(run_world(ranks, |_| ()))), |s| s);
    let gsumf_s = timing_of(
        5,
        || {
            run_world(ranks, |rank| {
                // The replicated builders reduce the square n x n buffer.
                let mut v = vec![1.0; n * n];
                rank.ft_barrier().expect("fault-free world");
                let t = Instant::now();
                for _ in 0..8 {
                    rank.try_gsumf(&mut v).expect("fault-free world");
                }
                t.elapsed().as_secs_f64() / 8.0
            })
        },
        |w| w.per_rank.into_iter().fold(0.0, f64::max),
    );
    let lease_ns = timing_of(
        5,
        || {
            run_world(ranks, |rank| {
                rank.lease_reset(n_pair, LeaseMode::Volatile).expect("fault-free world");
                let t = Instant::now();
                let mut claims = 1u64;
                while let Some(task) = rank.lease_next().expect("fault-free world") {
                    rank.lease_complete(task);
                    claims += 1;
                }
                (t.elapsed().as_secs_f64(), claims)
            })
        },
        |w| {
            let (s, c) = w.per_rank.into_iter().fold((0.0, 0), |a, r| (a.0 + r.0, a.1 + r.1));
            s * 1e9 / c as f64
        },
    );
    let team = Team::new(threads);
    let region_s = timing_of(15, || timed(|| drop(team.parallel(|_| ()))), |s| s);
    // One dynamic(1) loop per ij task over its kl range, empty body: the
    // shared-Fock schedule with the work taken out.
    let chunks = n_pair * (n_pair + 1) / 2;
    let dynamic_ns = timing_of(
        3,
        || {
            team.parallel(|tctx| {
                timed(|| {
                    for ij in 0..n_pair {
                        tctx.for_each(ij + 1, Schedule::dynamic1(), |kl| {
                            black_box(kl);
                        })
                    }
                })
            })
        },
        |per_thread| per_thread.into_iter().fold(0.0, f64::max) * 1e9 / chunks as f64,
    );
    // One FI/FJ-sized flush: every thread dirties its column of a mean-width
    // shell block, then the team flushes it into the shared matrix.
    let rows = n * n.div_ceil(ns);
    let (cols, acc) = (PaddedColumns::new(rows, threads), SharedAccumulator::new(n * n));
    const FLUSHES: usize = 200;
    let flush_call_s = team
        .parallel(|tctx| {
            timed(|| {
                for _ in 0..FLUSHES {
                    cols.col_mut(tctx.thread_num()).fill(1.0);
                    cols.flush_into(tctx, &acc, 0);
                }
            })
        })
        .into_iter()
        .fold(0.0, f64::max)
        / FLUSHES as f64;
    // Counts the workload's first build reports, times the primitive costs.
    let (flush_s, loop_chunks) = match wl.algorithm {
        FockAlgorithm::SharedFock { .. } => (
            flush_call_s * stats.flushes as f64,
            (stats.quartets_computed + stats.quartets_screened) as f64,
        ),
        // collapse(2) over (j, k) for each i task.
        FockAlgorithm::PrivateFock { .. } => (0.0, (1..=ns).map(|i| (i * i) as f64).sum()),
        _ => (0.0, 0.0),
    };
    let explained = spawn_s
        + gsumf_s
        + lease_ns * 1e-9 * stats.dlb_calls as f64
        + if threads > 1 { region_s + dynamic_ns * 1e-9 * loop_chunks + flush_s } else { 0.0 };
    out.put("dmpi.world_spawn_s", "s", spawn_s);
    out.put("dmpi.gsumf_s", "s", gsumf_s);
    out.put("dmpi.lease_ns_per_claim", "ns", lease_ns);
    out.put("omp.region_spawn_s", "s", region_s);
    out.put("omp.dynamic_ns_per_chunk", "ns", dynamic_ns);
    out.put("omp.flush_s", "s", flush_s);
    // A share of nothing is not a number: serial workloads and builders at
    // or above ideal speed-up report 0.
    out.put(
        "core.fock.overhead_explained",
        "ratio",
        if wl.is_serial() || overhead_s <= 0.0 { 0.0 } else { explained / overhead_s },
    );
}

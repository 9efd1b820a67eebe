//! Cold geometry-to-α jobs: `System` build → SCF → three DFPT directions →
//! α, with the layer probes the traced run adds on the converged state.

use crate::host;
use crate::inputs::translated;
use crate::trace::Tracer;
use qp_bench::workloads::{bench_dfpt_options, bench_scf_options};
use qp_chem::basis::BasisSettings;
use qp_chem::geometry::Structure;
use qp_chem::grids::GridSettings;
use qp_chem::multipole::{solve_poisson, MultipoleMoments};
use qp_core::dfpt::{
    h1_mo_screened, sternheimer_response, sternheimer_response_screened, DfptOptions,
};
use qp_core::mixing::{DfptMixer, MixState};
use qp_core::parallel::{parallel_dfpt_direction, CollectiveScheme, MappingKind, ParallelConfig};
use qp_core::{operators, ScfResult, System};
use qp_linalg::DMatrix;
use std::hint::black_box;
use std::time::Instant;

/// Relative tolerance of every α comparison.
pub const ALPHA_REL_TOL: f64 = 1e-6;

/// The molecules α jobs run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Molecule {
    /// H(C₂H₄)₁₆H, 98 atoms: the large-n leg, on the tree far field.
    Polymer98,
    /// The 49-atom compact ligand: direct planned Rho, iteration-bound.
    Ligand49,
    /// H(C₂H₄)₄H, 26 atoms: the largest molecule of the served mix.
    Polymer26,
}

impl Molecule {
    /// The untranslated geometry.
    pub fn structure(self) -> Structure {
        match self {
            Molecule::Polymer98 => qp_bench::workloads::polymer(98).structure,
            Molecule::Ligand49 => qp_bench::workloads::ligand().structure,
            Molecule::Polymer26 => qp_bench::workloads::polymer(26).structure,
        }
    }

    /// α diagonal (bohr³) of the untranslated molecule, pinned from the
    /// code this benchmark was written against. A rigid translation moves
    /// α by well under [`ALPHA_REL_TOL`].
    pub fn alpha_reference(self) -> [f64; 3] {
        match self {
            Molecule::Polymer98 => [5334.894076471164, 180.26848730304184, 234.36245925820361],
            Molecule::Ligand49 => [1726.603036761331, 1616.157186143686, 459.26593385947865],
            Molecule::Polymer26 => [228.55718524646448, 50.47516738042354, 62.39969814175385],
        }
    }
}

/// The bench-grade system of `qp_bench::workloads::bench_*_system` (coarse
/// grid at 8 radial shells × 6 angular points, light basis, batches of
/// 150, multipoles to l = 2), built on an arbitrary geometry.
pub fn build_system(structure: Structure) -> System {
    System::build(structure, BasisSettings::Light, &bench_grid(), 150, 2)
}

/// The bench-grade grid: coarse, 8 radial shells × 6 angular points.
fn bench_grid() -> GridSettings {
    let mut gs = GridSettings::coarse();
    gs.n_radial = 8;
    gs.max_angular = 6;
    gs.min_angular = 6;
    gs
}

/// How the three DFPT directions run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `qp_core::dfpt` (serial driver, qp-par fan-out).
    Serial,
    /// `parallel::parallel_dfpt_direction` over in-process ranks.
    Spmd,
}

/// The SPMD set-up: 2 in-process ranks on one node, Algorithm 1 mapping,
/// packed hierarchical collectives. Each rank runs with the qp-par pool at
/// one thread (see [`spmd_direction`]), so busy threads stay at the rank
/// count.
pub fn spmd_config() -> ParallelConfig {
    ParallelConfig {
        n_ranks: 2,
        ranks_per_node: 2,
        mapping: MappingKind::LocalityEnhancing,
        collectives: CollectiveScheme::PackedHierarchical,
    }
}

/// One SPMD direction's outcome.
#[derive(Debug, Clone)]
pub struct SpmdDirection {
    /// Wall time, s.
    pub secs: f64,
    /// α column `α[:, dir]`, or `None` if `parallel_dfpt_direction` returned an error.
    pub alpha_col: Option<[f64; 3]>,
    /// Iterations used.
    pub iterations: usize,
    /// Collectives issued (traffic records).
    pub collectives: usize,
    /// Payload bytes over all records (per-rank payload × ranks).
    pub bytes: u64,
    /// Max/mean grid points per rank.
    pub imbalance: f64,
}

/// qp-par's process-wide thread limit, set for the guard's lifetime and
/// restored on drop. The process-wide limit, not a `ThreadLease`, because
/// the threads a callee spawns itself (qp-mpi's rank threads) must see it.
pub struct PoolThreads {
    prev: usize,
}

impl PoolThreads {
    /// Set the limit to `n` until the guard drops.
    pub fn exactly(n: usize) -> Self {
        PoolThreads {
            prev: qp_par::set_active_threads(n),
        }
    }
}

impl Drop for PoolThreads {
    fn drop(&mut self) {
        qp_par::set_active_threads(self.prev);
    }
}

/// Run one SPMD direction on a converged ground state, with the qp-par pool
/// at one thread for every rank.
pub fn spmd_direction(
    system: &System,
    ground: &ScfResult,
    dips: &[DMatrix],
    dir: usize,
    opts: &DfptOptions,
) -> SpmdDirection {
    let _one = PoolThreads::exactly(1);
    let t = Instant::now();
    let out = parallel_dfpt_direction(system, ground, dir, opts, &spmd_config());
    let secs = t.elapsed().as_secs_f64();
    match out {
        Ok(r) => {
            let mean = r.points_per_rank.iter().sum::<usize>() as f64
                / r.points_per_rank.len().max(1) as f64;
            let max = r.points_per_rank.iter().copied().max().unwrap_or(0) as f64;
            SpmdDirection {
                secs,
                alpha_col: Some(
                    [0, 1, 2].map(|i| r.p1.trace_product(&dips[i]).expect("nb × nb dipole matrix")),
                ),
                iterations: r.iterations,
                collectives: r.traffic.len(),
                bytes: r
                    .traffic
                    .iter()
                    .map(|t| (t.bytes_per_rank * t.ranks) as u64)
                    .sum(),
                imbalance: max / mean.max(1.0),
            }
        }
        Err(_) => SpmdDirection {
            secs,
            alpha_col: None,
            iterations: opts.max_iter,
            collectives: 0,
            bytes: 0,
            imbalance: 1.0,
        },
    }
}

/// Timings of the forced set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `System::build`.
    pub build: f64,
    /// `warm_tables`.
    pub tables: f64,
    /// `hartree_plan`.
    pub hartree_plan: f64,
    /// `farfield_tree`.
    pub farfield_tree: f64,
}

impl SetupTimes {
    /// Whole set-up, s.
    pub fn total(&self) -> f64 {
        self.build + self.tables + self.hartree_plan + self.farfield_tree
    }
}

/// Build a system and force its lazy set-up, timing each part.
pub fn setup(structure: Structure, tracer: &Tracer, job: u64) -> (System, SetupTimes) {
    tracer.span("setup", job, || {
        let timed = |name, f: &mut dyn FnMut()| {
            let t = Instant::now();
            tracer.span(name, job, f);
            t.elapsed().as_secs_f64()
        };
        let mut times = SetupTimes::default();
        let mut system = None;
        times.build = timed("system.build", &mut || {
            system = Some(build_system(structure.clone()))
        });
        let system = system.expect("built above");
        times.tables = timed("system.tables", &mut || system.warm_tables());
        times.hartree_plan = timed("system.hartree_plan", &mut || {
            black_box(system.hartree_plan());
        });
        times.farfield_tree = timed("system.farfield_tree", &mut || {
            black_box(system.farfield_tree());
        });
        (system, times)
    })
}

/// Stage peaks of the OS resident set, MiB (reset before each stage).
#[derive(Debug, Clone, Copy, Default)]
pub struct StagePeaks {
    /// Set-up.
    pub setup: f64,
    /// SCF.
    pub scf: f64,
    /// DFPT.
    pub dfpt: f64,
}

/// One finished job.
pub struct Job {
    /// Set-up parts.
    pub setup: SetupTimes,
    /// SCF wall time, s.
    pub scf_s: f64,
    /// DFPT wall time (three directions + α), s.
    pub dfpt_s: f64,
    /// Whole job, s.
    pub total_s: f64,
    /// SCF iterations.
    pub scf_iterations: usize,
    /// DFPT iterations per direction.
    pub dfpt_iterations: [usize; 3],
    /// α (3×3, bohr³); a failed SPMD direction leaves its column NaN.
    pub alpha: [[f64; 3]; 3],
    /// SPMD directions (empty for the serial driver).
    pub spmd: Vec<SpmdDirection>,
    /// Stage peaks, when requested.
    pub peaks: Option<StagePeaks>,
    /// The system, kept for the probes.
    pub system: System,
    /// The converged ground state, kept for the probes and checks.
    pub ground: ScfResult,
}

impl Job {
    /// α's diagonal.
    pub fn alpha_diag(&self) -> [f64; 3] {
        [0, 1, 2].map(|d| self.alpha[d][d])
    }
}

/// Run one cold job on `structure` translated by `t`.
pub fn run_job(
    molecule: Molecule,
    driver: Driver,
    t: [f64; 3],
    tracer: &Tracer,
    job: u64,
    stage_peaks: bool,
) -> Result<Job, String> {
    let structure = translated(&molecule.structure(), t);
    let reset = || {
        if stage_peaks {
            host::reset_peak_rss().map_err(|e| format!("peak reset: {e}"))
        } else {
            Ok(())
        }
    };
    let t0 = Instant::now();
    tracer.span("job", job, || {
        reset()?;
        let (system, setup_times) = setup(structure, tracer, job);
        let peak_setup = host::peak_rss_mib();
        reset()?;
        let t_scf = Instant::now();
        let ground = tracer
            .span("scf", job, || qp_core::scf(&system, &bench_scf_options()))
            .map_err(|e| format!("SCF: {e}"))?;
        let scf_s = t_scf.elapsed().as_secs_f64();
        let peak_scf = host::peak_rss_mib();
        reset()?;
        let t_dfpt = Instant::now();
        let opts = bench_dfpt_options();
        let (alpha, dfpt_iterations, spmd) = tracer.span("dfpt", job, || match driver {
            Driver::Serial => qp_core::dfpt(&system, &ground, &opts)
                .map(|r| (alpha_array(&r.polarizability), r.iterations, Vec::new()))
                .map_err(|e| format!("DFPT: {e}")),
            Driver::Spmd => {
                let dips: Vec<DMatrix> = (0..3)
                    .map(|d| operators::dipole_matrix(&system, d))
                    .collect();
                let dirs: Vec<SpmdDirection> = (0..3)
                    .map(|d| {
                        tracer.span("spmd.direction", job, || {
                            spmd_direction(&system, &ground, &dips, d, &opts)
                        })
                    })
                    .collect();
                let mut alpha = [[f64::NAN; 3]; 3];
                for (j, dir) in dirs.iter().enumerate() {
                    if let Some(col) = dir.alpha_col {
                        for i in 0..3 {
                            alpha[i][j] = col[i];
                        }
                    }
                }
                let iters = [0, 1, 2].map(|d| dirs[d].iterations);
                Ok((alpha, iters, dirs))
            }
        })?;
        let dfpt_s = t_dfpt.elapsed().as_secs_f64();
        let total_s = t0.elapsed().as_secs_f64();
        let peaks = stage_peaks.then(|| StagePeaks {
            setup: peak_setup,
            scf: peak_scf,
            dfpt: host::peak_rss_mib(),
        });
        Ok(Job {
            setup: setup_times,
            scf_s,
            dfpt_s,
            total_s,
            scf_iterations: ground.iterations,
            dfpt_iterations,
            alpha,
            spmd,
            peaks,
            system,
            ground,
        })
    })
}

/// Does `alpha` match `reference` within `rel`, entry by entry? NaN fails.
pub fn alpha_matches(alpha: [f64; 3], reference: [f64; 3], rel: f64) -> bool {
    (0..3).all(|d| (alpha[d] - reference[d]).abs() <= rel * reference[d].abs())
}

/// The serial α of a finished job's own ground state (the reference an
/// SPMD direction is checked against).
pub fn serial_alpha(job: &Job) -> Result<[[f64; 3]; 3], String> {
    qp_core::dfpt(&job.system, &job.ground, &bench_dfpt_options())
        .map(|r| alpha_array(&r.polarizability))
        .map_err(|e| format!("serial DFPT: {e}"))
}

fn alpha_array(a: &DMatrix) -> [[f64; 3]; 3] {
    [0, 1, 2].map(|i| [0, 1, 2].map(|j| a[(i, j)]))
}

/// Does SPMD column `dir` match the serial α's column within
/// [`ALPHA_REL_TOL`] of the serial diagonal entry?
pub fn column_matches(spmd: &[[f64; 3]; 3], serial: &[[f64; 3]; 3], dir: usize) -> bool {
    let scale = serial[dir][dir].abs();
    (0..3).all(|i| (spmd[i][dir] - serial[i][dir]).abs() <= ALPHA_REL_TOL * scale)
}

/// The Rho phase as the drivers run it: multipole moments, the radial
/// Poisson solve, then far-field (tree) or planned/direct evaluation,
/// following the branch the system picks, fanned out through qp-par.
///
/// The drivers keep this sequence inline, so it is repeated here. Two
/// checks keep it honest: a self-test pins its potential to the program's
/// own `kernels::rho_phase`, and the traced run reports the drivers'
/// recorded `rho.v1` span beside this probe (`rho.span_s`).
pub fn rho(system: &System, density: &[f64]) -> Vec<f64> {
    let plan = system.hartree_plan();
    let moments = match plan.as_deref() {
        Some(pl) => MultipoleMoments::compute_planned(&system.structure, &system.grid, density, pl),
        None => MultipoleMoments::compute(&system.structure, &system.grid, density, system.lmax),
    };
    let hartree = solve_poisson(&system.structure, &system.grid, &moments);
    let natoms = system.structure.len();
    let mut v = vec![0.0; system.grid.len()];
    let est = (natoms * hartree.n_lm * 8).max(1) as u64;
    let points = &system.grid.points;
    match system.farfield_tree() {
        Some(tree) => {
            let far = qp_grid::FarField::aggregate(tree, &hartree, qp_grid::farfield_tol());
            qp_par::fill_slice_hinted(&mut v, est, |ip| {
                far.eval(tree, &hartree, points[ip].position)
            });
        }
        None => match plan.as_deref() {
            Some(pl) => qp_par::fill_slice_hinted(&mut v, est, |ip| hartree.eval_planned(pl, ip)),
            None => qp_par::fill_slice_hinted(&mut v, est, |ip| {
                hartree.eval_atoms(points[ip].position, 0..natoms)
            }),
        },
    }
    v
}

/// Median call time of each layer on a converged state, and calls per job.
#[derive(Debug, Clone, Copy)]
pub struct LayerProbe {
    /// Median seconds per call.
    pub call_s: f64,
    /// Calls one job makes.
    pub calls: usize,
}

/// The probed layers, in report order.
pub const LAYERS: [&str; 6] = ["sumup", "rho", "h", "eigen", "sternheimer", "mixing"];

/// Repetitions per probe (the median is reported).
const PROBE_REPS: usize = 5;

fn probe(tracer: &Tracer, name: &'static str, job: u64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            tracer.span(name, job, &mut f);
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples)
}

/// Time each layer's public entry point on `job`'s converged state. Calls
/// per job count the serial driver's calls of the same function.
pub fn layer_probes(job: &Job, tracer: &Tracer, id: u64) -> [LayerProbe; 6] {
    let sys = &job.system;
    let g = &job.ground;
    let nb = sys.n_basis();
    let scf_it = job.scf_iterations;
    let dfpt_it: usize = job.dfpt_iterations.iter().sum();

    let density = sys.density_on_grid(&g.density_matrix);
    let v_h = rho(sys, &density);
    let mut h = operators::kinetic(sys);
    h.axpy(1.0, &operators::potential_matrix(sys, &v_h))
        .expect("nb × nb");
    let mut h1 = operators::dipole_matrix(sys, 0);
    h1.scale(-1.0);
    let c = &g.orbitals;
    let c_t = c.transpose();
    let occ = &g.occupations;
    let eps = &g.eigenvalues;
    let mut rng = crate::inputs::Rng::new(id, 0x313);
    let mut noise = || DMatrix::from_fn(nb, nb, |_, _| rng.unit() - 0.5);
    let pairs: Vec<(DMatrix, DMatrix)> = (0..2 * 6 + PROBE_REPS)
        .map(|_| (noise(), noise()))
        .collect();

    tracer.span("probes", id, || {
        let sumup = probe(tracer, "probe.sumup", id, || {
            black_box(sys.density_on_grid(&g.density_matrix));
        });
        let rho_s = probe(tracer, "probe.rho", id, || {
            black_box(rho(sys, &density));
        });
        let h_s = probe(tracer, "probe.h", id, || {
            black_box(operators::potential_matrix(sys, &v_h));
        });
        let eigen = probe(tracer, "probe.eigen", id, || {
            black_box(qp_linalg::generalized_symmetric_eigen(&h, &g.overlap).expect("S is SPD"));
        });
        let stern = probe(tracer, "probe.sternheimer", id, || {
            black_box(if sys.screen().is_some() {
                let h1_mo = h1_mo_screened(&c_t, &h1, c, occ);
                sternheimer_response_screened(c, eps, occ, &h1_mo)
            } else {
                let h1_mo = c_t
                    .par_matmul(&h1)
                    .and_then(|m| m.par_matmul(c))
                    .expect("nb × nb");
                sternheimer_response(c, eps, occ, &h1_mo)
            });
        });
        // Pulay at depth 6 with a full history: prime, then time steps.
        let mut mixer = MixState::new(DfptMixer::Pulay { depth: 6 }, bench_dfpt_options().mixing);
        let mut next = pairs.iter().cycle();
        for _ in 0..2 * 6 {
            let (cur, tgt) = next.next().expect("cycle");
            black_box(mixer.step(cur, tgt));
        }
        let mixing = probe(tracer, "probe.mixing", id, || {
            let (cur, tgt) = next.next().expect("cycle");
            black_box(mixer.step(cur, tgt));
        });
        let dfpt_dirs = 3;
        [
            LayerProbe {
                call_s: sumup,
                calls: scf_it + 1 + dfpt_it + dfpt_dirs,
            },
            LayerProbe {
                call_s: rho_s,
                calls: scf_it + dfpt_it,
            },
            LayerProbe {
                call_s: h_s,
                calls: 1 + scf_it + dfpt_it,
            },
            LayerProbe {
                call_s: eigen,
                calls: 1 + scf_it,
            },
            LayerProbe {
                call_s: stern,
                calls: dfpt_it,
            },
            LayerProbe {
                call_s: mixing,
                calls: dfpt_it,
            },
        ]
    })
}

/// Achieved GEMM rate at the job's basis size: `C·C` with the blocked
/// parallel kernel, median of repeated calls, GFLOP/s.
pub fn gemm_gflops(job: &Job, tracer: &Tracer, id: u64) -> f64 {
    let c = &job.ground.orbitals;
    let n = c.rows() as f64;
    let s = probe(tracer, "probe.gemm", id, || {
        black_box(c.par_matmul(c).expect("square"));
    });
    2.0 * n * n * n / s / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the tests that run qp-core code: one of them sets qp-par's
    /// process-wide thread limit and reads its process-wide telemetry.
    static CORE: Mutex<()> = Mutex::new(());

    fn core_lock() -> std::sync::MutexGuard<'static, ()> {
        CORE.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A smooth positive density: `diag(0.1)` as the density matrix.
    fn toy_density(sys: &System) -> Vec<f64> {
        let nb = sys.n_basis();
        sys.density_on_grid(&DMatrix::from_fn(
            nb,
            nb,
            |i, j| if i == j { 0.1 } else { 0.0 },
        ))
    }

    fn program_rho(sys: &System, density: &[f64]) -> Vec<f64> {
        let queue = qp_cl::CommandQueue::new(qp_cl::device::host_cpu());
        qp_core::kernels::rho_phase(&queue, sys, density, false).v1_es
    }

    #[test]
    fn rho_matches_the_program_rho_kernel_on_the_direct_branch() {
        let _g = core_lock();
        let sys = build_system(Molecule::Polymer26.structure());
        assert!(sys.farfield_tree().is_none());
        let density = toy_density(&sys);
        let ours = rho(&sys, &density);
        let program = program_rho(&sys, &density);
        assert_eq!(ours.len(), program.len());
        for (a, b) in ours.iter().zip(&program) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn rho_matches_the_program_rho_kernel_on_the_tree_branch() {
        let _g = core_lock();
        let sys = System::build_with_modes(
            Molecule::Polymer26.structure(),
            BasisSettings::Light,
            &bench_grid(),
            150,
            2,
            qp_core::ScreeningMode::Auto,
            qp_core::FarFieldMode::Tree,
        );
        assert!(sys.farfield_tree().is_some());
        let density = toy_density(&sys);
        let ours = rho(&sys, &density);
        // The program's kernel evaluates every atom directly; the tree
        // serves the far field within the far-field tolerance.
        let program = program_rho(&sys, &density);
        let scale = program.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let dev = ours
            .iter()
            .zip(&program)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(dev > 0.0, "the tree branch ran");
        assert!(dev <= 1e-6 * scale, "deviation {dev} of {scale}");
    }

    #[test]
    fn spmd_ranks_run_the_pool_at_one_thread() {
        let _g = core_lock();
        // The ligand: its nb exceeds one GEMM row block, so the ranks'
        // Sternheimer products submit qp-par regions.
        let sys = build_system(Molecule::Ligand49.structure());
        let ground = qp_core::scf(&sys, &bench_scf_options()).expect("ligand converges");
        let dips: Vec<DMatrix> = (0..3).map(|d| operators::dipole_matrix(&sys, d)).collect();
        let _wide = PoolThreads::exactly(2);
        qp_par::telemetry::set_enabled(true);
        let _ = qp_par::telemetry::take_records();
        spmd_direction(&sys, &ground, &dips, 0, &bench_dfpt_options());
        let records = qp_par::telemetry::take_records();
        qp_par::telemetry::set_enabled(false);
        assert_eq!(qp_par::active_threads(), 2, "limit restored");
        // Regions the rank threads submit carry the driver's phase labels.
        let ranks: Vec<_> = records.iter().filter(|r| r.label != "other").collect();
        assert!(!ranks.is_empty(), "no rank region recorded");
        for r in ranks {
            assert_eq!(r.threads, 1, "{} region at {} threads", r.label, r.threads);
        }
    }

    #[test]
    fn alpha_check_rejects_a_perturbed_alpha() {
        let reference = Molecule::Polymer98.alpha_reference();
        assert!(alpha_matches(reference, reference, ALPHA_REL_TOL));
        for d in 0..3 {
            let mut near = reference;
            near[d] *= 1.0 + 0.5e-6;
            assert!(alpha_matches(near, reference, ALPHA_REL_TOL));
            let mut off = reference;
            off[d] *= 1.0 + 2e-6;
            assert!(!alpha_matches(off, reference, ALPHA_REL_TOL), "dir {d}");
            off[d] = f64::NAN;
            assert!(!alpha_matches(off, reference, ALPHA_REL_TOL), "NaN dir {d}");
        }
    }

    #[test]
    fn spmd_column_check_rejects_a_perturbed_column() {
        let serial = [[10.0, 0.1, 0.0], [0.1, 20.0, 0.0], [0.0, 0.0, 30.0]];
        assert!(column_matches(&serial, &serial, 1));
        let mut off = serial;
        off[0][1] += 1e-4;
        assert!(!column_matches(&off, &serial, 1));
        assert!(column_matches(&off, &serial, 2));
    }

    #[test]
    fn build_system_matches_the_bench_grade_system() {
        let _g = core_lock();
        let ours = build_system(Molecule::Ligand49.structure());
        let bench = qp_bench::workloads::bench_ligand_system();
        assert_eq!(ours.n_basis(), bench.n_basis());
        assert_eq!(ours.n_points(), bench.n_points());
        assert_eq!(ours.batches.len(), bench.batches.len());
        assert_eq!(ours.lmax, bench.lmax);
        for (a, b) in ours.grid.points.iter().zip(&bench.grid.points) {
            assert_eq!(a.position, b.position);
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }
}

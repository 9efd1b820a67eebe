//! The distributed DFPT driver: the full Fig. 1 cycle over `qp-mpi` ranks.
//!
//! The parallel decomposition is FHI-aims': *grid work is distributed*
//! (batches mapped to ranks by either §3.1 strategy), *matrices are
//! replicated* and synthesized by collectives. Per DFPT iteration each rank
//!
//! 1. computes `n¹` on its own batches (Sumup),
//! 2. accumulates its partial `rho_multipole` rows and synthesizes them
//!    across ranks — per-row AllReduce (baseline), packed (§3.2.1), or
//!    packed + hierarchical (§3.2.2),
//! 3. redundantly solves the radial Poisson problem ("trading redundant
//!    calculations for communication avoidance", §4.2),
//! 4. assembles its partial `H¹` block and AllReduces it,
//! 5. performs the (replicated) Sternheimer update and mixes `P¹` — the
//!    serial driver's own [`crate::dfpt::sternheimer_target`] and mixer, so
//!    integer and Fermi–Dirac ground states give the serial answer.
//!
//! Deterministic rank-ordered reductions make every rank take identical
//! branches, so no extra control-flow synchronization is needed.

use crate::dfpt::{sternheimer_target, DfptOptions};
use crate::mixing::{DfptMixer, MixState};
use crate::operators;
use crate::scf::ScfResult;
use crate::system::System;
use crate::{CoreError, Result};
use qp_chem::harmonics::{num_harmonics, real_spherical_harmonics};
use qp_chem::multipole::{solve_poisson, MultipoleMoments};
use qp_chem::xc;
use qp_grid::mapping::{LoadBalancingMapping, LocalityEnhancingMapping, TaskMapping};
use qp_linalg::DMatrix;
use qp_mpi::packed::PackedAllReduce;
use qp_mpi::{run_spmd, CommError, ReduceOp, TrafficRecord};

/// Which §3.1 task mapping distributes the batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingKind {
    /// Baseline least-loaded assignment.
    LoadBalancing,
    /// Algorithm 1 recursive bisection.
    LocalityEnhancing,
}

/// How `rho_multipole` is synthesized across ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveScheme {
    /// One AllReduce per atom row (the Fig. 10 baseline).
    PerRow,
    /// Rows packed into ≤ 30 MB batches (§3.2.1).
    Packed,
    /// Packed rows synthesized hierarchically (§3.2.2).
    PackedHierarchical,
}

/// Parallel-run configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// MPI ranks.
    pub n_ranks: usize,
    /// Ranks per shared-memory node.
    pub ranks_per_node: usize,
    /// Task mapping.
    pub mapping: MappingKind,
    /// Collective scheme for `rho_multipole`.
    pub collectives: CollectiveScheme,
}

/// Result of a distributed DFPT direction.
#[derive(Debug)]
pub struct ParallelDirectionResult {
    /// Converged response density matrix.
    pub p1: DMatrix,
    /// Iterations used.
    pub iterations: usize,
    /// All collective-traffic records of the run.
    pub traffic: Vec<TrafficRecord>,
    /// Grid points per rank (mapping diagnostics).
    pub points_per_rank: Vec<usize>,
}

/// Compute this rank's batch assignment (identical on every rank).
pub(crate) fn assign_batches(system: &System, cfg: &ParallelConfig) -> Vec<usize> {
    match cfg.mapping {
        MappingKind::LoadBalancing => LoadBalancingMapping.assign(&system.batches, cfg.n_ranks),
        MappingKind::LocalityEnhancing => {
            LocalityEnhancingMapping.assign(&system.batches, cfg.n_ranks)
        }
    }
}

/// Per-direction precomputation plus the full Fig. 1 iteration body,
/// shared by the plain driver below and the supervised resilient driver in
/// [`crate::resil`].
pub(crate) struct DirWork<'a> {
    system: &'a System,
    ground: &'a ScfResult,
    collectives: CollectiveScheme,
    mixing: f64,
    mixer: DfptMixer,
    dir: usize,
    dip: DMatrix,
    fxc: Vec<f64>,
    /// `Cᵀ` — the MO transform's left factor, built once per direction.
    c_t: DMatrix,
    nb: usize,
    n_lm: usize,
    row_len: usize,
    natoms: usize,
}

/// The loop-carried state of one rank's DFPT direction: the mixed `P¹`
/// and the mixer history. Identical on every rank at each
/// iteration boundary (deterministic collectives), which is what makes
/// rank 0's checkpoint of it a consistent global cut.
pub(crate) struct DirState {
    pub(crate) p1: DMatrix,
    pub(crate) mixer: MixState,
}

impl<'a> DirWork<'a> {
    pub(crate) fn new(
        system: &'a System,
        ground: &'a ScfResult,
        dir: usize,
        opts: &DfptOptions,
        cfg: &ParallelConfig,
    ) -> Self {
        let n_lm = num_harmonics(system.lmax);
        DirWork {
            system,
            ground,
            collectives: cfg.collectives,
            mixing: opts.mixing,
            mixer: opts.mixer,
            dir,
            dip: operators::dipole_matrix(system, dir),
            fxc: ground
                .density
                .iter()
                .map(|&n| xc::f_xc(n.max(0.0)))
                .collect(),
            c_t: ground.orbitals.transpose(),
            nb: system.n_basis(),
            n_lm,
            row_len: system.grid.radial.len() * n_lm,
            natoms: system.structure.len(),
        }
    }

    /// Fresh loop state (zero `P¹`, empty mixer history).
    pub(crate) fn initial_state(&self) -> DirState {
        DirState {
            p1: DMatrix::zeros(self.nb, self.nb),
            mixer: MixState::new(self.mixer, self.mixing),
        }
    }

    /// Loop state restored from a checkpoint (`P¹` and the DIIS history as
    /// captured; the histories are empty for the linear mixer).
    pub(crate) fn state_from(
        &self,
        p1: DMatrix,
        diis_in: Vec<DMatrix>,
        diis_res: Vec<DMatrix>,
    ) -> DirState {
        DirState {
            p1,
            mixer: MixState::with_history(self.mixer, self.mixing, diis_in, diis_res),
        }
    }

    /// The batch indices `assignment` maps to `rank`.
    pub(crate) fn my_batches(assignment: &[usize], rank: usize) -> Vec<usize> {
        assignment
            .iter()
            .enumerate()
            .filter(|(_, &r)| r == rank)
            .map(|(b, _)| b)
            .collect()
    }

    /// One distributed DFPT iteration: Sumup → rho synthesis → Poisson →
    /// `H¹` AllReduce → Sternheimer. Advances `state` in place and returns
    /// the residual `‖ΔP¹‖`.
    pub(crate) fn iteration(
        &self,
        comm: &qp_mpi::Comm,
        my_batches: &[usize],
        iter: usize,
        state: &mut DirState,
    ) -> std::result::Result<f64, CommError> {
        let system = self.system;
        let (nb, n_lm, row_len, natoms) = (self.nb, self.n_lm, self.row_len, self.natoms);
        let rank = comm.rank();
        let mut iter_span = qp_trace::SpanGuard::begin(rank, qp_trace::Phase::Dfpt, "dfpt.iter");
        if iter_span.is_recording() {
            iter_span.arg("iter", iter).arg("dir", self.dir);
        }
        // ---- Sumup on own batches (GEMM form, see `System::batch_density`) ----
        let sumup_span = crate::phase_span(qp_trace::Phase::Sumup, "sumup.local_n1");
        let local_n1: Vec<Vec<f64>> = my_batches
            .iter()
            .map(|&b| system.batch_density(b, &state.p1))
            .collect();
        drop(sumup_span);

        // ---- Partial rho_multipole rows from own points ----
        let rho_span = crate::phase_span(qp_trace::Phase::Rho, "rho.partial_rows");
        // The geometry plan holds every point's own-atom harmonics (the
        // same bits the unplanned evaluation produces).
        let plan = system.hartree_plan();
        let mut rows = vec![vec![0.0; row_len]; natoms];
        let mut ylm_buf = vec![0.0; n_lm];
        let fourpi = 4.0 * std::f64::consts::PI;
        for (bi, &b) in my_batches.iter().enumerate() {
            let batch = &system.batches[b];
            for (pi, pt) in batch.points.iter().enumerate() {
                let gi = pt.grid_index as usize;
                let gp = &system.grid.points[gi];
                let ia = gp.atom as usize;
                let ylm = match plan.as_deref() {
                    Some(pl) => pl.own_harmonics(gi),
                    None => {
                        let center = system.structure.atoms[ia].position;
                        let d = [
                            gp.position[0] - center[0],
                            gp.position[1] - center[1],
                            gp.position[2] - center[2],
                        ];
                        real_spherical_harmonics(system.lmax, d, &mut ylm_buf);
                        &ylm_buf[..]
                    }
                };
                let f = fourpi * gp.w_angular * gp.partition * local_n1[bi][pi];
                let base = gp.shell as usize * n_lm;
                for (lm, y) in ylm.iter().enumerate() {
                    rows[ia][base + lm] += f * y;
                }
            }
        }

        drop(rho_span);

        // ---- Synthesize rho_multipole across ranks ----
        let synth_span = crate::phase_span(qp_trace::Phase::Rho, "rho.synthesize");
        let reduced_rows: Vec<Vec<f64>> = match self.collectives {
            CollectiveScheme::PerRow => {
                let mut out = Vec::with_capacity(natoms);
                for row in rows.iter() {
                    out.push(comm.allreduce(ReduceOp::Sum, row)?);
                }
                out
            }
            CollectiveScheme::Packed => {
                let mut packer = PackedAllReduce::new(comm, ReduceOp::Sum);
                for (ia, row) in rows.iter().enumerate() {
                    packer.push(&format!("rho_multipole:{ia}"), row.clone())?;
                }
                packer.flush()?;
                (0..natoms)
                    .map(|ia| {
                        packer
                            .take(&format!("rho_multipole:{ia}"))
                            .ok_or(CommError::Mismatch("missing packed row"))
                    })
                    .collect::<std::result::Result<_, _>>()?
            }
            CollectiveScheme::PackedHierarchical => {
                let packed: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
                let reduced = qp_mpi::hierarchical::hierarchical_allreduce(
                    comm,
                    "rho_multipole",
                    ReduceOp::Sum,
                    &packed,
                )?;
                reduced.chunks(row_len).map(|c| c.to_vec()).collect()
            }
        };

        drop(synth_span);

        // ---- Redundant Poisson solve (producer) on every rank ----
        let poisson_span = crate::phase_span(qp_trace::Phase::Rho, "rho.poisson");
        let moments = MultipoleMoments {
            lmax: system.lmax,
            n_lm,
            moments: reduced_rows,
        };
        let hartree = solve_poisson(&system.structure, &system.grid, &moments);
        // In tree mode the far part of the per-point Hartree sum is served
        // from aggregated cluster moments (QP_FARFIELD_TOL budget); every
        // rank aggregates from the same redundant Poisson solution, so the
        // replicated potential stays rank-independent.
        let far = system.farfield_tree().map(|tree| {
            (
                tree,
                qp_grid::FarField::aggregate(tree, &hartree, qp_grid::farfield_tol()),
            )
        });
        drop(poisson_span);

        // ---- Partial H1 from own batches ----
        let h_span = crate::phase_span(qp_trace::Phase::H, "h1.partial");
        let mut h1_partial = DMatrix::zeros(nb, nb);
        for (bi, &b) in my_batches.iter().enumerate() {
            let batch = &system.batches[b];
            let table = system.table(b);
            let nf = table.fn_indices.len();
            for (pi, pt) in batch.points.iter().enumerate() {
                let gi = pt.grid_index as usize;
                let gp = &system.grid.points[gi];
                let v_h = match (&far, plan.as_deref()) {
                    (Some((tree, ff)), _) => ff.eval(tree, &hartree, gp.position),
                    (None, Some(pl)) => hartree.eval_planned(pl, gi),
                    (None, None) => hartree.eval(gp.position),
                };
                let v1 = v_h + self.fxc[gi] * local_n1[bi][pi];
                let w = gp.weight * v1;
                if w == 0.0 {
                    continue;
                }
                let row = &table.values[pi * nf..(pi + 1) * nf];
                for a in 0..nf {
                    if row[a] == 0.0 {
                        continue;
                    }
                    let fa = table.fn_indices[a];
                    for bq in 0..nf {
                        let fb = table.fn_indices[bq];
                        h1_partial[(fa, fb)] += w * row[a] * row[bq];
                    }
                }
            }
        }
        let h1_flat = comm.allreduce(ReduceOp::Sum, h1_partial.as_slice())?;
        let mut h1 = DMatrix::from_vec(nb, nb, h1_flat).expect("nb x nb");
        h1.axpy(-1.0, &self.dip).expect("same dims");
        drop(h_span);

        // ---- Replicated Sternheimer update + P¹ mixing ----
        // The serial driver's own step on the allreduced H¹: every rank
        // holds the same H¹, so every rank computes the same P¹.
        let stern_span = crate::phase_span(qp_trace::Phase::Sternheimer, "sternheimer");
        let p1_target = sternheimer_target(system, self.ground, &self.c_t, &h1);
        drop(stern_span);
        let p1_new = state.mixer.step(&state.p1, &p1_target);
        let residual = p1_new.max_abs_diff(&state.p1);
        if iter_span.is_recording() {
            iter_span.arg("residual", residual);
        }
        state.p1 = p1_new;
        Ok(residual)
    }
}

/// Map a communication failure onto the core error type.
pub(crate) fn comm_failure(e: CommError) -> CoreError {
    CoreError::NoConvergence {
        what: match e {
            CommError::RankFailed => "parallel DFPT (rank failure)",
            CommError::Timeout => "parallel DFPT (communication timeout)",
            CommError::Mismatch(_) => "parallel DFPT (collective mismatch)",
        },
        iterations: 0,
        residual: f64::NAN,
    }
}

/// Run one DFPT direction distributed over `cfg.n_ranks` ranks.
pub fn parallel_dfpt_direction(
    system: &System,
    ground: &ScfResult,
    dir: usize,
    opts: &DfptOptions,
    cfg: &ParallelConfig,
) -> Result<ParallelDirectionResult> {
    let assignment = assign_batches(system, cfg);
    let work = DirWork::new(system, ground, dir, opts, cfg);

    // Rank threads take the caller's qp-par target (a lease is per thread).
    let threads = qp_par::active_threads();
    let outputs = run_spmd(cfg.n_ranks, cfg.ranks_per_node, |comm| {
        let _lease = qp_par::ThreadLease::exactly(threads);
        let rank = comm.rank();
        let my_batches = DirWork::my_batches(&assignment, rank);
        let my_points: usize = my_batches.iter().map(|&b| system.batches[b].len()).sum();

        let mut state = work.initial_state();
        let mut iterations = 0usize;
        let mut converged = false;

        for iter in 1..=opts.max_iter {
            iterations = iter;
            let residual = work.iteration(comm, &my_batches, iter, &mut state)?;
            if residual < opts.tol {
                converged = true;
                break;
            }
        }

        let traffic = if rank == 0 {
            comm.traffic().snapshot()
        } else {
            Vec::new()
        };
        Ok((converged, iterations, state.p1.clone(), traffic, my_points))
    })
    .map_err(comm_failure)?;

    let (converged, iterations, p1, traffic, _) = outputs[0].clone();
    if !converged {
        return Err(CoreError::NoConvergence {
            what: "parallel DFPT self-consistency",
            iterations,
            residual: f64::NAN,
        });
    }
    let points_per_rank = outputs.iter().map(|o| o.4).collect();
    Ok(ParallelDirectionResult {
        p1,
        iterations,
        traffic,
        points_per_rank,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfpt::dfpt_direction;
    use crate::scf::{scf, ScfOptions};
    use qp_chem::basis::BasisSettings;
    use qp_chem::grids::GridSettings;
    use qp_chem::structures::water;
    use qp_mpi::CollectiveKind;

    fn setup() -> (System, ScfResult) {
        let mut gs = GridSettings::light();
        gs.n_radial = 24;
        gs.max_angular = 26;
        let sys = System::build(water(), BasisSettings::Light, &gs, 120, 2);
        let ground = scf(&sys, &ScfOptions::default()).unwrap();
        (sys, ground)
    }

    fn cfg(mapping: MappingKind, collectives: CollectiveScheme) -> ParallelConfig {
        ParallelConfig {
            n_ranks: 4,
            ranks_per_node: 2,
            mapping,
            collectives,
        }
    }

    #[test]
    fn parallel_matches_serial_reference() {
        let (sys, ground) = setup();
        let opts = DfptOptions::default();
        let serial = dfpt_direction(&sys, &ground, 2, &opts).unwrap();
        for mapping in [MappingKind::LoadBalancing, MappingKind::LocalityEnhancing] {
            let par = parallel_dfpt_direction(
                &sys,
                &ground,
                2,
                &opts,
                &cfg(mapping, CollectiveScheme::PerRow),
            )
            .unwrap();
            assert!(
                par.p1.max_abs_diff(&serial.p1) < 1e-6,
                "{mapping:?}: parallel deviates by {}",
                par.p1.max_abs_diff(&serial.p1)
            );
        }
    }

    #[test]
    fn parallel_matches_serial_with_smearing() {
        // Fermi–Dirac occupations: the SPMD cycle must use the same
        // occupation-aware Sternheimer step as the serial driver.
        let mut gs = GridSettings::light();
        gs.n_radial = 24;
        gs.max_angular = 26;
        let sys = System::build(water(), BasisSettings::Light, &gs, 120, 2);
        let scf_opts = ScfOptions {
            smearing: Some(0.1),
            ..ScfOptions::default()
        };
        let ground = scf(&sys, &scf_opts).unwrap();
        assert!(
            ground
                .occupations
                .iter()
                .any(|&f| f > 1e-3 && f < 2.0 - 1e-3),
            "smearing must leave fractional occupations: {:?}",
            ground.occupations
        );
        let opts = DfptOptions::default();
        let dips: Vec<DMatrix> = (0..3).map(|d| operators::dipole_matrix(&sys, d)).collect();
        let alpha_col = |p1: &DMatrix| -> Vec<f64> {
            dips.iter().map(|d| p1.trace_product(d).unwrap()).collect()
        };
        let two_ranks = ParallelConfig {
            n_ranks: 2,
            ..cfg(MappingKind::LocalityEnhancing, CollectiveScheme::Packed)
        };
        for dir in 0..3 {
            let serial = alpha_col(&dfpt_direction(&sys, &ground, dir, &opts).unwrap().p1);
            let par = parallel_dfpt_direction(&sys, &ground, dir, &opts, &two_ranks).unwrap();
            let par = alpha_col(&par.p1);
            let diag = serial[dir].abs();
            for i in 0..3 {
                assert!(
                    (par[i] - serial[i]).abs() <= 1e-6 * diag,
                    "alpha[{i}][{dir}]: ranks {} vs serial {}",
                    par[i],
                    serial[i]
                );
            }
        }
    }

    #[test]
    fn all_collective_schemes_agree() {
        let (sys, ground) = setup();
        let opts = DfptOptions::default();
        let reference = parallel_dfpt_direction(
            &sys,
            &ground,
            0,
            &opts,
            &cfg(MappingKind::LocalityEnhancing, CollectiveScheme::PerRow),
        )
        .unwrap();
        for scheme in [
            CollectiveScheme::Packed,
            CollectiveScheme::PackedHierarchical,
        ] {
            let out = parallel_dfpt_direction(
                &sys,
                &ground,
                0,
                &opts,
                &cfg(MappingKind::LocalityEnhancing, scheme),
            )
            .unwrap();
            assert!(
                out.p1.max_abs_diff(&reference.p1) < 1e-8,
                "{scheme:?} deviates by {}",
                out.p1.max_abs_diff(&reference.p1)
            );
        }
    }

    #[test]
    fn packing_reduces_collective_calls() {
        let (sys, ground) = setup();
        let opts = DfptOptions::default();
        let per_row = parallel_dfpt_direction(
            &sys,
            &ground,
            1,
            &opts,
            &cfg(MappingKind::LocalityEnhancing, CollectiveScheme::PerRow),
        )
        .unwrap();
        let packed = parallel_dfpt_direction(
            &sys,
            &ground,
            1,
            &opts,
            &cfg(MappingKind::LocalityEnhancing, CollectiveScheme::Packed),
        )
        .unwrap();
        let count =
            |t: &[TrafficRecord], k: CollectiveKind| t.iter().filter(|r| r.kind == k).count();
        // Baseline: natoms AllReduce per iteration for rho_multipole (plus
        // one for H1). Packed: 1 PackedAllReduce per iteration.
        let baseline_all = count(&per_row.traffic, CollectiveKind::AllReduce);
        let rho_packed = count(&packed.traffic, CollectiveKind::PackedAllReduce);
        let h1_packed = count(&packed.traffic, CollectiveKind::AllReduce);
        assert!(rho_packed > 0);
        // Baseline: (natoms + 1) AllReduce per iteration (3 rho_multipole
        // rows + 1 H¹); packed: 1 PackedAllReduce + 1 H¹ AllReduce. For the
        // 3-atom system the rho-row count drops exactly natoms -> 1.
        assert_eq!(h1_packed, rho_packed, "one H1 AllReduce per iteration");
        let rho_baseline_rows = baseline_all.saturating_sub(h1_packed);
        assert!(
            rho_baseline_rows >= 3 * rho_packed,
            "packing should absorb the {rho_baseline_rows} per-row calls into {rho_packed}"
        );
    }

    #[test]
    fn mapping_balances_points() {
        let (sys, ground) = setup();
        let opts = DfptOptions::default();
        let out = parallel_dfpt_direction(
            &sys,
            &ground,
            0,
            &opts,
            &cfg(MappingKind::LocalityEnhancing, CollectiveScheme::Packed),
        )
        .unwrap();
        let max = *out.points_per_rank.iter().max().unwrap() as f64;
        let min = *out.points_per_rank.iter().min().unwrap() as f64;
        assert!(min > 0.0);
        assert!(max / min < 2.0, "{:?}", out.points_per_rank);
    }
}

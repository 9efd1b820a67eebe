//! The distributed DFPT driver: the Fig. 1 cycle over `qp-mpi` ranks.
//!
//! The parallel decomposition is FHI-aims': *grid work is distributed*
//! (batches mapped to ranks by either §3.1 strategy), *matrices are
//! replicated* and synthesized by collectives. There is no separate SPMD
//! iteration: every rank runs the one DFPT cycle,
//! [`crate::dfpt::dfpt_direction_preemptible`], with a [`RankView`] — its
//! communicator, its batches and the collective scheme. Per iteration each
//! rank
//!
//! 1. computes `n¹` on its own batches (Sumup),
//! 2. accumulates its partial `rho_multipole` rows and synthesizes them
//!    across ranks — per-row AllReduce (baseline), packed (§3.2.1), or
//!    packed + hierarchical (§3.2.2),
//! 3. redundantly solves the radial Poisson problem ("trading redundant
//!    calculations for communication avoidance", §4.2),
//! 4. assembles its partial `H¹` block (screened when the system screens)
//!    and AllReduces it,
//! 5. performs the (replicated) Sternheimer update and mixes `P¹`.
//!
//! Deterministic rank-ordered reductions make every rank take identical
//! branches, so no extra control-flow synchronization is needed, and one
//! rank reproduces the serial cycle bit for bit.

use crate::dfpt::{dfpt_direction_preemptible, DfptOptions, DfptShared, DirOutcome};
use crate::scf::ScfResult;
use crate::system::{BatchSubset, System};
use crate::{CoreError, Result};
use qp_chem::multipole::MultipoleMoments;
use qp_grid::mapping::{LoadBalancingMapping, LocalityEnhancingMapping, TaskMapping};
use qp_linalg::DMatrix;
use qp_mpi::packed::PackedAllReduce;
use qp_mpi::{run_spmd_with, Comm, CommError, ReduceOp, SpmdOptions, TrafficRecord};
use qp_resil::DfptCheckpoint;

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

/// One SPMD rank's view of the DFPT cycle: its communicator, its share of
/// the grid and how the `rho_multipole` rows are synthesized.
pub struct RankView<'a> {
    /// This rank's communicator.
    pub comm: &'a Comm,
    /// The batches the task mapping gave this rank.
    pub subset: &'a BatchSubset,
    /// Collective scheme for `rho_multipole`.
    pub collectives: CollectiveScheme,
}

impl RankView<'_> {
    /// Sum every rank's partial `rho_multipole` rows (one collective
    /// round per iteration, through the configured scheme).
    pub(crate) fn synthesize(
        &self,
        partial: MultipoleMoments,
    ) -> std::result::Result<MultipoleMoments, CommError> {
        let comm = self.comm;
        let rows = partial.moments;
        let moments = match self.collectives {
            CollectiveScheme::PerRow => rows
                .iter()
                .map(|row| comm.allreduce(ReduceOp::Sum, row))
                .collect::<std::result::Result<_, _>>()?,
            CollectiveScheme::Packed => {
                let mut packer = PackedAllReduce::new(comm, ReduceOp::Sum);
                let natoms = rows.len();
                for (ia, row) in rows.into_iter().enumerate() {
                    packer.push(&format!("rho_multipole:{ia}"), row)?;
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
                let row_len = rows.first().map_or(0, Vec::len);
                let packed: Vec<f64> = rows.concat();
                let reduced = qp_mpi::hierarchical::hierarchical_allreduce(
                    comm,
                    "rho_multipole",
                    ReduceOp::Sum,
                    &packed,
                )?;
                reduced
                    .chunks(row_len.max(1))
                    .map(<[f64]>::to_vec)
                    .collect()
            }
        };
        Ok(MultipoleMoments { moments, ..partial })
    }

    /// Sum every rank's partial matrix (one AllReduce).
    pub(crate) fn allreduce(&self, partial: DMatrix) -> std::result::Result<DMatrix, CommError> {
        let (rows, cols) = (partial.rows(), partial.cols());
        let sum = self.comm.allreduce(ReduceOp::Sum, partial.as_slice())?;
        Ok(DMatrix::from_vec(rows, cols, sum).expect("allreduce keeps the length"))
    }
}

/// Each batch's rank under `cfg`'s mapping (identical on every rank).
fn assign_batches(system: &System, cfg: &ParallelConfig) -> Vec<usize> {
    match cfg.mapping {
        MappingKind::LoadBalancing => LoadBalancingMapping.assign(&system.batches, cfg.n_ranks),
        MappingKind::LocalityEnhancing => {
            LocalityEnhancingMapping.assign(&system.batches, cfg.n_ranks)
        }
    }
}

/// Run direction `dir`'s DFPT cycle on `cfg.n_ranks` in-process ranks, each
/// seeded from `resume` and observed by `on_iter` (called with the rank's
/// communicator). The outer error is a communication failure (restartable
/// from a checkpoint); the inner one is the cycle's own, identical on
/// every rank (rank 0's is reported). A rank whose hook returns `false`
/// fails with [`CommError::Mismatch`], so its peers stop too.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_ranks(
    system: &System,
    ground: &ScfResult,
    shared: &DfptShared,
    dir: usize,
    opts: &DfptOptions,
    cfg: &ParallelConfig,
    spmd: SpmdOptions,
    resume: Option<&DfptCheckpoint>,
    on_iter: &(dyn Fn(&Comm, &DfptCheckpoint) -> bool + Sync),
) -> std::result::Result<Result<ParallelDirectionResult>, CommError> {
    let assignment = assign_batches(system, cfg);
    // Rank threads take the caller's qp-par target (a lease is per thread).
    let threads = qp_par::active_threads();
    let ranks = run_spmd_with(cfg.n_ranks, cfg.ranks_per_node, spmd, |comm| {
        let _lease = qp_par::ThreadLease::exactly(threads);
        let mine: Vec<usize> = (0..assignment.len())
            .filter(|&b| assignment[b] == comm.rank())
            .collect();
        let points = mine.iter().map(|&b| system.batches[b].len()).sum::<usize>();
        let subset = BatchSubset::new(system, mine);
        let view = RankView {
            comm,
            subset: &subset,
            collectives: cfg.collectives,
        };
        let outcome = dfpt_direction_preemptible(
            system,
            ground,
            shared,
            dir,
            opts,
            Some(&view),
            resume.cloned(),
            &mut |st| on_iter(comm, st),
        );
        let response = match outcome {
            Ok(DirOutcome::Converged(resp)) => Ok(resp),
            Ok(DirOutcome::Preempted(_)) => {
                return Err(CommError::Mismatch("iteration hook stopped the rank"))
            }
            Err(CoreError::Comm(e)) => return Err(e),
            Err(e) => Err(e),
        };
        let traffic = if comm.rank() == 0 {
            comm.traffic().snapshot()
        } else {
            Vec::new()
        };
        Ok((response, traffic, points))
    })?;
    let points_per_rank = ranks.iter().map(|r| r.2).collect();
    let (response, traffic, _) = ranks.into_iter().next().expect("at least one rank");
    Ok(response.map(|resp| ParallelDirectionResult {
        p1: resp.p1,
        iterations: resp.iterations,
        traffic,
        points_per_rank,
    }))
}

/// Run one DFPT direction distributed over `cfg.n_ranks` ranks.
pub fn parallel_dfpt_direction(
    system: &System,
    ground: &ScfResult,
    dir: usize,
    opts: &DfptOptions,
    cfg: &ParallelConfig,
) -> Result<ParallelDirectionResult> {
    let shared = DfptShared::new(system, ground);
    run_ranks(
        system,
        ground,
        &shared,
        dir,
        opts,
        cfg,
        SpmdOptions::default(),
        None,
        &|_, _| true,
    )?
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfpt::dfpt_direction;
    use crate::scf::{scf, ScfOptions};
    use crate::screening::ScreeningMode;
    use qp_chem::basis::BasisSettings;
    use qp_chem::grids::GridSettings;
    use qp_chem::structures::water;
    use qp_mpi::CollectiveKind;

    /// Water on a small light grid, with Fermi–Dirac `smearing` if given.
    fn water_ground(screening: ScreeningMode, smearing: Option<f64>) -> (System, ScfResult) {
        let mut gs = GridSettings::light();
        gs.n_radial = 24;
        gs.max_angular = 26;
        let sys =
            System::build_with_screening(water(), BasisSettings::Light, &gs, 120, 2, screening);
        let scf_opts = ScfOptions {
            smearing,
            ..ScfOptions::default()
        };
        let ground = scf(&sys, &scf_opts).unwrap();
        (sys, ground)
    }

    fn setup() -> (System, ScfResult) {
        water_ground(ScreeningMode::Auto, None)
    }

    fn cfg(mapping: MappingKind, collectives: CollectiveScheme) -> ParallelConfig {
        ParallelConfig {
            n_ranks: 4,
            ranks_per_node: 2,
            mapping,
            collectives,
        }
    }

    /// One SPMD direction at default options.
    fn spmd(
        sys: &System,
        g: &ScfResult,
        dir: usize,
        c: &ParallelConfig,
    ) -> ParallelDirectionResult {
        parallel_dfpt_direction(sys, g, dir, &DfptOptions::default(), c).unwrap()
    }

    #[test]
    fn parallel_matches_serial_reference() {
        let (sys, ground) = setup();
        let opts = DfptOptions::default();
        let serial = dfpt_direction(&sys, &ground, 2, &opts).unwrap();
        for mapping in [MappingKind::LoadBalancing, MappingKind::LocalityEnhancing] {
            let par = spmd(&sys, &ground, 2, &cfg(mapping, CollectiveScheme::PerRow));
            assert!(
                par.p1.max_abs_diff(&serial.p1) < 1e-6,
                "{mapping:?}: parallel deviates by {}",
                par.p1.max_abs_diff(&serial.p1)
            );
        }
    }

    fn assert_same_bits(a: &DMatrix, b: &DMatrix, what: &str) {
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: entry {i}: {x} vs {y}");
        }
    }

    #[test]
    fn one_rank_is_the_serial_cycle_bit_for_bit() {
        let opts = DfptOptions::default();
        for (occupations, (sys, ground)) in [
            ("integer", setup()),
            ("Fermi-Dirac", water_ground(ScreeningMode::Auto, Some(0.1))),
        ] {
            for dir in 0..3 {
                let serial = dfpt_direction(&sys, &ground, dir, &opts).unwrap();
                for collectives in [
                    CollectiveScheme::PerRow,
                    CollectiveScheme::Packed,
                    CollectiveScheme::PackedHierarchical,
                ] {
                    let one = ParallelConfig {
                        n_ranks: 1,
                        ranks_per_node: 1,
                        ..cfg(MappingKind::LocalityEnhancing, collectives)
                    };
                    let par = spmd(&sys, &ground, dir, &one);
                    assert_eq!(par.iterations, serial.iterations);
                    let what = format!("{occupations}, dir {dir}, {collectives:?}");
                    assert_same_bits(&par.p1, &serial.p1, &what);
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial_with_smearing() {
        // Fermi–Dirac occupations: the SPMD cycle must use the same
        // occupation-aware Sternheimer step as the serial driver, and its
        // screened assembly must give the dense bits.
        let opts = DfptOptions::default();
        let two_ranks = ParallelConfig {
            n_ranks: 2,
            ..cfg(MappingKind::LocalityEnhancing, CollectiveScheme::Packed)
        };
        let runs: Vec<_> = [ScreeningMode::On, ScreeningMode::Off]
            .into_iter()
            .map(|mode| {
                let (sys, ground) = water_ground(mode, Some(0.1));
                assert_eq!(sys.screen().is_some(), mode == ScreeningMode::On);
                assert!(
                    ground
                        .occupations
                        .iter()
                        .any(|&f| f > 1e-3 && f < 2.0 - 1e-3),
                    "smearing must leave fractional occupations: {:?}",
                    ground.occupations
                );
                let shared = DfptShared::new(&sys, &ground);
                (0..3)
                    .map(|dir| {
                        let serial = dfpt_direction(&sys, &ground, dir, &opts).unwrap();
                        let par = spmd(&sys, &ground, dir, &two_ranks);
                        let (s, p) = (
                            shared.alpha_column(&serial.p1),
                            shared.alpha_column(&par.p1),
                        );
                        for i in 0..3 {
                            assert!(
                                (p[i] - s[i]).abs() <= 1e-6 * s[dir].abs(),
                                "alpha[{i}][{dir}]: ranks {} vs serial {}",
                                p[i],
                                s[i]
                            );
                        }
                        par.p1
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        for dir in 0..3 {
            let what = format!("dir {dir}: 2-rank screened vs dense");
            assert_same_bits(&runs[0][dir], &runs[1][dir], &what);
        }
    }

    #[test]
    fn non_convergence_reports_the_last_residual() {
        let (sys, ground) = setup();
        let opts = DfptOptions {
            max_iter: 2,
            ..DfptOptions::default()
        };
        let two_ranks = ParallelConfig {
            n_ranks: 2,
            ..cfg(MappingKind::LocalityEnhancing, CollectiveScheme::Packed)
        };
        match parallel_dfpt_direction(&sys, &ground, 0, &opts, &two_ranks) {
            Err(CoreError::NoConvergence {
                iterations,
                residual,
                ..
            }) => {
                assert_eq!(iterations, 2);
                assert!(residual.is_finite() && residual > opts.tol, "{residual}");
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn all_collective_schemes_agree() {
        let (sys, ground) = setup();
        let mapping = MappingKind::LocalityEnhancing;
        let reference = spmd(&sys, &ground, 0, &cfg(mapping, CollectiveScheme::PerRow));
        for scheme in [
            CollectiveScheme::Packed,
            CollectiveScheme::PackedHierarchical,
        ] {
            let out = spmd(&sys, &ground, 0, &cfg(mapping, scheme));
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
        let mapping = MappingKind::LocalityEnhancing;
        let per_row = spmd(&sys, &ground, 1, &cfg(mapping, CollectiveScheme::PerRow));
        let packed = spmd(&sys, &ground, 1, &cfg(mapping, CollectiveScheme::Packed));
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
        let packed = cfg(MappingKind::LocalityEnhancing, CollectiveScheme::Packed);
        let out = spmd(&sys, &ground, 0, &packed);
        let max = *out.points_per_rank.iter().max().unwrap() as f64;
        let min = *out.points_per_rank.iter().min().unwrap() as f64;
        assert!(min > 0.0);
        assert!(max / min < 2.0, "{:?}", out.points_per_rank);
    }
}

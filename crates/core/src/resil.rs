//! Self-recovering drivers: the SCF and distributed DFPT cycles wrapped in
//! checkpoint/restart supervision.
//!
//! The recovery argument rests on determinism: the rank-ordered collectives
//! make every rank hold bit-identical `P¹` at each iteration boundary,
//! so rank 0's checkpoint is a consistent global cut, and an attempt
//! restarted from it replays the remaining iterations **bit-exactly** —
//! a run that loses a rank mid-DFPT lands on the same polarizability as the
//! fault-free run (the integration tests pin this to 1e-8, and it holds to
//! the last bit).
//!
//! Checkpoints are committed only after every collective of the covered
//! iteration has completed on all ranks (a crashed rank kills the
//! iteration's collectives first, so no torn state is ever captured), kept
//! in memory across restarts, and mirrored to disk in the `QPCK` format
//! when a checkpoint directory is configured. Faults injected through
//! [`FaultPlan`](qp_resil::FaultPlan) fire once per process, so the
//! restarted attempt sails past the crash site — exactly like a respawned
//! MPI job on fresh hardware.

use crate::dfpt::{DfptOptions, DfptShared};
use crate::parallel::{run_ranks, ParallelConfig, ParallelDirectionResult};
use crate::scf::{scf_resumable, ScfOptions, ScfResult};
use crate::system::System;
use crate::{CoreError, Result};
use parking_lot::Mutex;
use qp_machine::machine::MachineModel;
use qp_mpi::{Comm, FaultHook, SpmdOptions};
use qp_resil::recovery::{RecoveryPolicy, RecoveryStats, Supervisor};
use qp_resil::{DfptCheckpoint, ResilError, ScfCheckpoint};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the resilience layer around a driver.
#[derive(Clone, Default)]
pub struct ResilienceConfig {
    /// Where `QPCK` checkpoints are mirrored (`None` = in-memory only; a
    /// restarted *process* then cannot resume, but in-run recovery works).
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint every this many iterations (0 disables checkpointing).
    pub checkpoint_interval: usize,
    /// Restart budget for the supervised region.
    pub max_restarts: usize,
    /// Resume from an existing on-disk checkpoint before the first attempt.
    pub restart: bool,
    /// Fault hook installed into the SPMD runtime (usually a
    /// [`qp_resil::FaultPlan`] parsed from `QP_FAULT`).
    pub fault: Option<Arc<dyn FaultHook>>,
    /// Failure-detection deadline override for collectives and `recv`.
    pub comm_timeout: Option<Duration>,
    /// Machine whose simulated clock is charged for checkpoint writes and
    /// restarts.
    pub machine: Option<MachineModel>,
}

impl std::fmt::Debug for ResilienceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilienceConfig")
            .field("checkpoint_dir", &self.checkpoint_dir)
            .field("checkpoint_interval", &self.checkpoint_interval)
            .field("max_restarts", &self.max_restarts)
            .field("restart", &self.restart)
            .field("fault", &self.fault.as_ref().map(|_| "FaultHook"))
            .field("comm_timeout", &self.comm_timeout)
            .field("machine", &self.machine.map(|m| m.name))
            .finish()
    }
}

/// A resilient direction run: the physics result plus the recovery story.
#[derive(Debug)]
pub struct ResilientDirectionResult {
    /// The converged direction (identical to a fault-free run's).
    pub direction: ParallelDirectionResult,
    /// Restarts, checkpoints, modeled overhead, event log.
    pub stats: RecoveryStats,
}

fn ck_err(e: ResilError) -> CoreError {
    CoreError::Checkpoint(e.to_string())
}

/// Run one DFPT direction under supervision: checkpoint every
/// `rcfg.checkpoint_interval` iterations, and on a rank failure or
/// communication timeout restart the SPMD region from the last committed
/// checkpoint, up to `rcfg.max_restarts` times.
pub fn parallel_dfpt_direction_resilient(
    system: &System,
    ground: &ScfResult,
    dir: usize,
    opts: &DfptOptions,
    cfg: &ParallelConfig,
    rcfg: &ResilienceConfig,
) -> Result<ResilientDirectionResult> {
    let shared = DfptShared::new(system, ground);
    parallel_dfpt_direction_resilient_with(system, ground, &shared, dir, opts, cfg, rcfg)
}

/// [`parallel_dfpt_direction_resilient`] against precomputed
/// [`DfptShared`] data. The supervisor reruns the ranks' DFPT cycle; the
/// cycle's iteration hook on rank 0 commits the checkpoints.
pub fn parallel_dfpt_direction_resilient_with(
    system: &System,
    ground: &ScfResult,
    shared: &DfptShared,
    dir: usize,
    opts: &DfptOptions,
    cfg: &ParallelConfig,
    rcfg: &ResilienceConfig,
) -> Result<ResilientDirectionResult> {
    let interval = rcfg.checkpoint_interval;
    let ck_path = rcfg
        .checkpoint_dir
        .as_ref()
        .map(|d| d.join(format!("dfpt_dir{dir}.qpck")));
    let initial = match (&ck_path, rcfg.restart) {
        (Some(p), true) if p.exists() => Some(DfptCheckpoint::load(p).map_err(ck_err)?),
        _ => None,
    };
    // The last *committed* checkpoint: written by rank 0 only after every
    // collective of the covered iteration completed on all ranks, read at
    // the top of each attempt.
    let store: Mutex<Option<DfptCheckpoint>> = Mutex::new(initial);
    // Checkpoint sizes written during the current attempt, drained into the
    // supervisor between attempts (the SPMD closure cannot borrow it).
    let written: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    // First disk-write error, if any (surfaced after the region exits).
    let io_error: Mutex<Option<ResilError>> = Mutex::new(None);
    let commit = |comm: &Comm, ck: &DfptCheckpoint| {
        if comm.rank() != 0 || interval == 0 || !ck.iteration.is_multiple_of(interval) {
            return true;
        }
        written.lock().push(ck.to_bytes().len());
        if let Some(p) = &ck_path {
            if let Err(e) = ck.save(p) {
                *io_error.lock() = Some(e);
                return false;
            }
        }
        *store.lock() = Some(ck.clone());
        true
    };

    let mut spmd_opts = SpmdOptions::default();
    spmd_opts.fault.clone_from(&rcfg.fault);
    if let Some(t) = rcfg.comm_timeout {
        spmd_opts = spmd_opts.with_timeout(t);
    }
    let mut supervisor = Supervisor::new(RecoveryPolicy {
        max_restarts: rcfg.max_restarts,
        ranks: cfg.n_ranks,
        machine: rcfg.machine,
    });
    let run = supervisor.run(|sup, _attempt| {
        let resume = store.lock().clone();
        let out = run_ranks(
            system,
            ground,
            shared,
            dir,
            opts,
            cfg,
            spmd_opts.clone(),
            resume.as_ref(),
            &commit,
        );
        for bytes in written.lock().drain(..) {
            sup.note_checkpoint(bytes);
        }
        out
    });

    if let Some(e) = io_error.into_inner() {
        return Err(ck_err(e));
    }
    Ok(ResilientDirectionResult {
        direction: run??,
        stats: supervisor.into_stats(),
    })
}

/// Ground-state SCF with periodic `QPCK` checkpoints (and `--restart`
/// resume). The SCF runs in one process, so supervision here is about
/// *surviving process death*: every `checkpoint_interval` iterations the
/// loop-carried state goes to `<dir>/scf.qpck`, and a rerun with
/// `rcfg.restart` picks up from it, replaying to an identical ground state.
pub fn scf_checkpointed(
    system: &System,
    opts: &ScfOptions,
    rcfg: &ResilienceConfig,
) -> Result<(ScfResult, RecoveryStats)> {
    let ck_path = rcfg.checkpoint_dir.as_ref().map(|d| d.join("scf.qpck"));
    let resume = match (&ck_path, rcfg.restart) {
        (Some(p), true) if p.exists() => Some(ScfCheckpoint::load(p).map_err(ck_err)?),
        _ => None,
    };

    let interval = rcfg.checkpoint_interval;
    let mut written: Vec<usize> = Vec::new();
    let mut io_error: Option<ResilError> = None;
    let result = scf_resumable(system, opts, resume, &mut |ck| {
        if interval == 0 || !ck.iteration.is_multiple_of(interval) || io_error.is_some() {
            return;
        }
        written.push(ck.to_bytes().len());
        if let Some(p) = &ck_path {
            if let Err(e) = ck.save(p) {
                io_error = Some(e);
            }
        }
    })?;
    if let Some(e) = io_error {
        return Err(ck_err(e));
    }

    let mut supervisor = Supervisor::new(RecoveryPolicy {
        max_restarts: 0,
        ranks: 1,
        machine: rcfg.machine,
    });
    for bytes in written {
        supervisor.note_checkpoint(bytes);
    }
    Ok((result, supervisor.into_stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scf::scf;
    use qp_chem::basis::BasisSettings;
    use qp_chem::grids::GridSettings;
    use qp_chem::structures::water;

    fn tiny_system() -> System {
        let mut gs = GridSettings::light();
        gs.n_radial = 24;
        gs.max_angular = 26;
        System::build(water(), BasisSettings::Light, &gs, 120, 2)
    }

    #[test]
    fn scf_checkpoint_resume_is_bit_exact() {
        let sys = tiny_system();
        let opts = ScfOptions::default();
        let reference = scf(&sys, &opts).unwrap();

        let dir = std::env::temp_dir().join("qp_resil_scf_resume");
        std::fs::create_dir_all(&dir).unwrap();
        let rcfg = ResilienceConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_interval: 3,
            ..ResilienceConfig::default()
        };
        let (first, stats) = scf_checkpointed(&sys, &opts, &rcfg).unwrap();
        assert_eq!(first.energy.to_bits(), reference.energy.to_bits());
        assert!(stats.checkpoints_written > 0);

        // "Process death": rerun from the on-disk checkpoint. The resumed
        // run replays the tail of the cycle and lands on the identical
        // ground state.
        let restart = ResilienceConfig {
            restart: true,
            ..rcfg
        };
        let (second, _) = scf_checkpointed(&sys, &opts, &restart).unwrap();
        assert_eq!(second.energy.to_bits(), reference.energy.to_bits());
        assert_eq!(second.iterations, reference.iterations);
        assert!(
            second
                .density_matrix
                .max_abs_diff(&reference.density_matrix)
                == 0.0
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

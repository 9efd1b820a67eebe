//! The job engine: runs one admitted request end to end — SCF, then the
//! three DFPT directions — through the preemptible entry points in
//! `qp-core`, writing `QPCK` job checkpoints at iteration boundaries.
//!
//! Two invariants this module is responsible for:
//!
//! * **Bit-identity with the CLI.** The computation is the exact sequence
//!   the `qperturb` direct path executes — `System::build(..)` with the
//!   same batching constants, `scf`, `DfptShared::new`, per-direction
//!   Sternheimer cycles, `α` columns contracted with the shared dipole
//!   matrices. A request served here, served from cache, or run via the
//!   CLI produces the same bits.
//! * **Bit-exact preempt/resume.** Preemption only happens at iteration
//!   boundaries, where the loop-carried state (density/response matrix +
//!   DIIS history) fully determines the remainder of the run. The `QPCK`
//!   kind-3 checkpoint captures exactly that state; resuming replays the
//!   identical floating-point sequence.

use crate::request::JobRequest;
use crate::result::JobResultData;
use crate::ServeError;
use qp_core::{
    dfpt_direction_preemptible, properties, scf_preemptible, DfptShared, DirOutcome, ScfOutcome,
    System,
};
use qp_linalg::DMatrix;
use qp_resil::{JobCheckpoint, JobDoneDirection, ScfCheckpoint};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// Outcome of one engine pass over a job.
pub enum EngineOutcome {
    /// The job ran to completion.
    Done(JobResultData),
    /// The job was preempted; its state is in the returned checkpoint
    /// (already persisted if a checkpoint path was given).
    Preempted(Box<JobCheckpoint>),
}

/// Progress callback: receives one human-readable line per SCF/DFPT
/// iteration boundary.
pub type ProgressFn<'a> = dyn FnMut(&str) + 'a;

/// How often (in iterations) the engine persists a `QPCK` checkpoint while
/// running. Preemption and shutdown always persist regardless.
pub const CHECKPOINT_INTERVAL: usize = 2;

fn persist(ckpt: &JobCheckpoint, path: Option<&Path>) -> Result<(), ServeError> {
    if let Some(p) = path {
        ckpt.save(p)
            .map_err(|e| ServeError::Internal(format!("checkpoint write: {e}")))?;
    }
    Ok(())
}

/// Run (or resume) one job. `preempt` is polled at every iteration
/// boundary; when set, the engine persists a checkpoint and returns
/// [`EngineOutcome::Preempted`]. `ckpt_path` additionally gets a periodic
/// checkpoint every [`CHECKPOINT_INTERVAL`] iterations so a hard kill
/// (process death, no preempt handshake) loses at most that much work.
pub fn run_job(
    req: &JobRequest,
    resume: Option<JobCheckpoint>,
    ckpt_path: Option<&Path>,
    preempt: &AtomicBool,
    progress: &mut ProgressFn<'_>,
) -> Result<EngineOutcome, ServeError> {
    let key = req.key();
    if let Some(r) = &resume {
        if r.key != key {
            return Err(ServeError::Internal(
                "checkpoint does not belong to this request".into(),
            ));
        }
    }
    let (scf_seed, mut dirs_done, mut cur_dir) = match resume {
        Some(r) => (r.scf, r.dirs_done, r.cur_dir),
        None => (None, Vec::new(), None),
    };

    // Same build constants as the CLI direct path — part of the
    // bit-identity contract.
    let system = System::build_with_modes(
        req.structure.clone(),
        req.basis,
        &req.grid,
        200,
        4,
        req.screening,
        req.farfield,
    );
    progress(&format!(
        "system: {} basis functions, {} grid points",
        system.n_basis(),
        system.n_points()
    ));

    // --- Ground state -----------------------------------------------------
    // The SCF seed is the latest non-converged state; resume replays the
    // short tail of the cycle, which determinism makes exact.
    let incoming_scf_seed = scf_seed.clone();
    let mut latest_scf: Option<ScfCheckpoint> = None;
    let scf_out = scf_preemptible(&system, &req.scf, scf_seed, &mut |st| {
        progress(&format!(
            "scf iter={} energy={:.10}",
            st.iteration, st.energy
        ));
        let stop = preempt.load(Ordering::Relaxed);
        if stop || st.iteration % CHECKPOINT_INTERVAL == 0 {
            let ckpt = JobCheckpoint {
                key,
                scf: Some(st.clone()),
                dirs_done: Vec::new(),
                cur_dir: None,
            };
            // Persist failures surface on the preempt path below; a
            // periodic write that fails only costs resume granularity.
            let _ = persist(&ckpt, ckpt_path);
        }
        latest_scf = Some(st.clone());
        !stop
    })
    .map_err(|e| ServeError::Engine(format!("SCF failed: {e}")))?;

    let ground = match scf_out {
        ScfOutcome::Converged(g) => g,
        ScfOutcome::Preempted(st) => {
            let iteration = st.iteration;
            let ckpt = JobCheckpoint {
                key,
                scf: Some(st),
                dirs_done: Vec::new(),
                cur_dir: None,
            };
            persist(&ckpt, ckpt_path)?;
            progress(&format!("preempted during scf at iter={iteration}"));
            return Ok(EngineOutcome::Preempted(Box::new(ckpt)));
        }
    };
    // Prefer the freshest captured state; fall back to the seed we resumed
    // from (a fast tail replay may converge before a new capture fires).
    let scf_seed_for_ckpt = latest_scf.or(incoming_scf_seed);
    progress(&format!(
        "scf converged: {} iterations, E={:.10} Ha",
        ground.iterations, ground.energy
    ));

    // --- Response ---------------------------------------------------------
    let shared = DfptShared::new(&system, &ground);
    let dipole = properties::dipole_moment(&system, &ground);

    while dirs_done.len() < 3 {
        let j = dirs_done.len();
        let dir_resume = match cur_dir.take() {
            Some(c) if c.dir == j => Some(c),
            // A checkpoint from an older protocol round with a stale
            // direction index restarts that direction from scratch;
            // determinism keeps the result identical either way.
            _ => None,
        };
        let outcome = dfpt_direction_preemptible(
            &system,
            &ground,
            &shared,
            j,
            &req.dfpt,
            None,
            dir_resume,
            &mut |st| {
                progress(&format!(
                    "dfpt dir={j} iter={} residual={:.3e}",
                    st.iteration, st.residual
                ));
                let stop = preempt.load(Ordering::Relaxed);
                if stop || st.iteration % CHECKPOINT_INTERVAL == 0 {
                    let ckpt = JobCheckpoint {
                        key,
                        scf: scf_seed_for_ckpt.clone(),
                        dirs_done: dirs_done.clone(),
                        cur_dir: Some(st.clone()),
                    };
                    let _ = persist(&ckpt, ckpt_path);
                }
                !stop
            },
        )
        .map_err(|e| ServeError::Engine(format!("DFPT dir {j} failed: {e}")))?;

        match outcome {
            DirOutcome::Converged(resp) => {
                dirs_done.push(JobDoneDirection {
                    iterations: resp.iterations,
                    alpha_col: shared.alpha_column(&resp.p1),
                });
                progress(&format!(
                    "dfpt dir={j} converged in {} iterations",
                    resp.iterations
                ));
            }
            DirOutcome::Preempted(st) => {
                let iteration = st.iteration;
                let ckpt = JobCheckpoint {
                    key,
                    scf: scf_seed_for_ckpt.clone(),
                    dirs_done: dirs_done.clone(),
                    cur_dir: Some(st),
                };
                persist(&ckpt, ckpt_path)?;
                progress(&format!(
                    "preempted during dfpt dir={j} at iter={iteration}"
                ));
                return Ok(EngineOutcome::Preempted(Box::new(ckpt)));
            }
        }
    }

    let mut alpha = DMatrix::zeros(3, 3);
    let mut iterations = [0usize; 3];
    for (j, d) in dirs_done.iter().enumerate() {
        for i in 0..3 {
            alpha[(i, j)] = d.alpha_col[i];
        }
        iterations[j] = d.iterations;
    }
    // The job is done; its checkpoint is stale state, not history.
    if let Some(p) = ckpt_path {
        let _ = std::fs::remove_file(p);
    }
    let isotropic = properties::isotropic_polarizability(&alpha);
    let anisotropy = properties::polarizability_anisotropy(&alpha);
    Ok(EngineOutcome::Done(JobResultData {
        energy: ground.energy,
        scf_iterations: ground.iterations,
        dipole,
        alpha,
        dfpt_iterations: iterations,
        isotropic,
        anisotropy,
    }))
}

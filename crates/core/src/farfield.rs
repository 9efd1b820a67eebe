//! Far-field evaluation control for the Hartree potential phases.
//!
//! [`FarFieldMode`] mirrors [`crate::screening::ScreeningMode`]: a
//! user-facing execution knob (`--farfield direct|tree|auto`) that never
//! changes *what* is computed, only *how fast* the far part of the
//! partitioned Hartree sum converges. The `direct` path is the oracle;
//! `tree` serves atoms beyond the near radius from hierarchical cluster
//! expansions (see `qp_grid::farfield`) within the `QP_FARFIELD_TOL`
//! accuracy budget; `auto` picks `tree` only where the direct sum loses
//! its precomputed geometry plan.

/// User-facing far-field control (`--farfield direct|tree|auto`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FarFieldMode {
    /// Always the exact per-atom sum (the test oracle).
    Direct,
    /// Always serve the far field from the hierarchical cluster tree.
    Tree,
    /// Tree exactly when the Hartree geometry plan does not fit its size
    /// cap (`System::hartree_plan()` is `None`), direct otherwise.
    ///
    /// Measured (DESIGN §14): while the plan fits, planned direct Rho beats
    /// the tree (the tree took 1.9–5.5× as long at 50–194 atoms); past the
    /// cap direct falls back to the unplanned sum and the tree wins (0.37–
    /// 0.46× at 290–386 atoms). Unlike screening the tree is
    /// tolerance-bounded, not bit-identical, so every system the planned
    /// evaluator serves keeps the exact path.
    #[default]
    Auto,
}

impl FarFieldMode {
    /// Whether the Hartree far field goes through the cluster tree, given
    /// whether the system's Hartree geometry plan fits its size cap.
    pub fn enabled(self, hartree_plan_fits: bool) -> bool {
        match self {
            FarFieldMode::Direct => false,
            FarFieldMode::Tree => true,
            FarFieldMode::Auto => !hartree_plan_fits,
        }
    }
}

impl std::str::FromStr for FarFieldMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "direct" => Ok(FarFieldMode::Direct),
            "tree" => Ok(FarFieldMode::Tree),
            "auto" => Ok(FarFieldMode::Auto),
            other => Err(format!(
                "invalid farfield mode '{other}' (expected direct|tree|auto)"
            )),
        }
    }
}

impl std::fmt::Display for FarFieldMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FarFieldMode::Direct => "direct",
            FarFieldMode::Tree => "tree",
            FarFieldMode::Auto => "auto",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing_roundtrip() {
        for (s, m) in [
            ("direct", FarFieldMode::Direct),
            ("tree", FarFieldMode::Tree),
            ("auto", FarFieldMode::Auto),
        ] {
            assert_eq!(s.parse::<FarFieldMode>().unwrap(), m);
            assert_eq!(m.to_string(), s);
        }
        assert!("TREE".parse::<FarFieldMode>().is_err());
        assert!("fmm".parse::<FarFieldMode>().is_err());
    }

    #[test]
    fn auto_threshold_keeps_regression_workloads_direct() {
        // Auto resolves on the Hartree plan alone: direct while the planned
        // evaluator fits (every regression workload, and polymer98), tree
        // once it does not.
        assert!(!FarFieldMode::Auto.enabled(true));
        assert!(FarFieldMode::Auto.enabled(false));
        for fits in [true, false] {
            assert!(FarFieldMode::Tree.enabled(fits));
            assert!(!FarFieldMode::Direct.enabled(fits));
        }
    }
}

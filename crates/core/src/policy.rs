//! The go / no-go policy (paper §V, scenarios 1–3).

use jitbull_telemetry::Verdict;

/// JITBULL's verdict for one compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Scenario 1: no dangerous passes — use the optimized code as-is.
    Go,
    /// Scenario 2: all dangerous passes can be disabled — recompile the
    /// function with exactly these pipeline slots turned off.
    Recompile(Vec<usize>),
    /// Scenario 3: at least one dangerous pass is mandatory — abandon
    /// optimized compilation for this function only.
    NoJit(Vec<usize>),
}

impl Decision {
    /// Whether the function may run its fully-optimized code.
    pub fn is_go(&self) -> bool {
        matches!(self, Decision::Go)
    }

    /// The dangerous pass slots (empty for [`Decision::Go`]).
    pub fn dangerous_passes(&self) -> &[usize] {
        match self {
            Decision::Go => &[],
            Decision::Recompile(p) | Decision::NoJit(p) => p,
        }
    }

    /// The telemetry verdict this decision reports as.
    pub fn verdict(&self) -> Verdict {
        match self {
            Decision::Go => Verdict::Go,
            Decision::Recompile(_) => Verdict::Recompile,
            Decision::NoJit(_) => Verdict::NoJit,
        }
    }
}

/// Applies the paper's three-scenario policy to a dangerous-pass list.
/// `disableable(slot)` answers whether the engine can turn that pipeline
/// slot off.
pub fn decide(dangerous: Vec<usize>, disableable: impl Fn(usize) -> bool) -> Decision {
    if dangerous.is_empty() {
        Decision::Go
    } else if dangerous.iter().all(|&p| disableable(p)) {
        Decision::Recompile(dangerous)
    } else {
        Decision::NoJit(dangerous)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_list_is_go() {
        let d = decide(vec![], |_| true);
        assert_eq!(d, Decision::Go);
        assert_eq!(d.verdict(), Verdict::Go);
        assert!(d.is_go());
        assert!(d.dangerous_passes().is_empty());
    }

    #[test]
    fn all_disableable_recompiles() {
        let d = decide(vec![3, 7], |_| true);
        assert_eq!(d, Decision::Recompile(vec![3, 7]));
        assert_eq!(d.verdict(), Verdict::Recompile);
        assert_eq!(d.dangerous_passes(), &[3, 7]);
    }

    #[test]
    fn any_mandatory_forces_nojit() {
        let d = decide(vec![0, 7], |slot| slot != 0);
        assert_eq!(d, Decision::NoJit(vec![0, 7]));
        assert_eq!(d.verdict(), Verdict::NoJit);
        assert!(!d.is_go());
    }
}

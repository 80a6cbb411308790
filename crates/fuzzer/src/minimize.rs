//! Test-case minimization: shrink a find to the smallest program that
//! still compromises the runtime (fewer statements → fewer overlapping
//! vulnerabilities → sharper DNA).

use std::fmt;

use jitbull_frontend::ast::Program;
use jitbull_frontend::{parse_program, print_program};
use jitbull_jit::engine::Engine;
use jitbull_jit::VulnConfig;
use jitbull_vdc::validate::run_script;

use crate::harness::campaign_engine;
use crate::Find;

fn still_compromises(source: &str, vulns: &VulnConfig) -> bool {
    let mut engine = Engine::new(campaign_engine(vulns.clone()));
    match run_script(source, &mut engine) {
        Ok(outcome) => outcome.is_compromised(),
        Err(_) => false,
    }
}

/// All removable statement slots of a program, as (path) indices. We
/// only delete inside function bodies and at the top level, one whole
/// statement at a time — enough granularity for generator output.
fn candidates(program: &Program) -> Vec<(Option<usize>, usize)> {
    let mut out = Vec::new();
    for (fi, f) in program.functions.iter().enumerate() {
        for si in 0..f.body.len() {
            out.push((Some(fi), si));
        }
    }
    for si in 0..program.top_level.len() {
        out.push((None, si));
    }
    out
}

fn remove(program: &Program, site: (Option<usize>, usize)) -> Program {
    let mut p = program.clone();
    match site {
        (Some(fi), si) => {
            p.functions[fi].body.remove(si);
        }
        (None, si) => {
            p.top_level.remove(si);
        }
    }
    p
}

/// Why a find could not be minimized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MinimizeError {
    /// The find's source does not parse.
    Unparsable(String),
    /// The find does not compromise the runtime to begin with, so there
    /// is nothing to preserve while shrinking it.
    NotReproducible,
}

impl fmt::Display for MinimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinimizeError::Unparsable(e) => write!(f, "find does not parse: {e}"),
            MinimizeError::NotReproducible => {
                write!(
                    f,
                    "not reproducible: the find does not compromise the runtime"
                )
            }
        }
    }
}

impl std::error::Error for MinimizeError {}

/// Greedy ddmin over whole statements: repeatedly delete any single
/// statement whose removal keeps the program compromising, until no
/// deletion survives. Returns the minimized find (unchanged when nothing
/// can be removed).
///
/// # Errors
///
/// [`MinimizeError::NotReproducible`] when the find does not compromise
/// the runtime on a campaign engine with `vulns`;
/// [`MinimizeError::Unparsable`] when its source does not parse.
pub fn minimize(find: &Find, vulns: &VulnConfig) -> Result<Find, MinimizeError> {
    let mut program =
        parse_program(&find.source).map_err(|e| MinimizeError::Unparsable(e.to_string()))?;
    if !still_compromises(&find.source, vulns) {
        return Err(MinimizeError::NotReproducible);
    }
    // Certain statements are load-bearing scaffolding the generator
    // always needs (returns keep bodies valid); statement removal that
    // breaks parsing/compiling simply fails the predicate.
    loop {
        let mut improved = false;
        for site in candidates(&program) {
            let trial = remove(&program, site);
            let source = print_program(&trial);
            if parse_program(&source).is_ok() && still_compromises(&source, vulns) {
                program = trial;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    Ok(Find {
        seed: find.seed,
        source: print_program(&program),
        outcome: find.outcome.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_complete, GenConfig};
    use crate::run_campaign;
    use jitbull_telemetry::NoopCollector;
    use jitbull_vdc::VdcOutcome;

    fn body_statements(source: &str) -> usize {
        parse_program(source)
            .unwrap()
            .functions
            .iter()
            .map(|f| f.body.len())
            .sum()
    }

    #[test]
    fn minimized_find_still_compromises_and_is_smaller_or_equal() {
        let vulns = VulnConfig::all();
        let report = run_campaign(0, 96, &vulns, &mut NoopCollector).expect("campaign");
        let find = report.finds.first().expect("at least one find").clone();
        let min = minimize(&find, &vulns).expect("a campaign find reproduces");
        assert!(
            still_compromises(&min.source, &vulns),
            "minimized program went benign:\n{}",
            min.source
        );
        assert!(
            min.source.len() <= find.source.len(),
            "minimization grew the program"
        );
    }

    #[test]
    fn minimization_strips_benign_filler() {
        let vulns = VulnConfig::all();
        let report = run_campaign(0, 96, &vulns, &mut NoopCollector).expect("campaign");
        let find = report.finds.first().expect("at least one find");
        let min = minimize(find, &vulns).expect("a campaign find reproduces");
        let (before, after) = (body_statements(&find.source), body_statements(&min.source));
        assert!(
            after < before,
            "expected some statement to be removable ({before} -> {after})\n{}",
            min.source
        );
    }

    #[test]
    fn benign_input_is_rejected_as_not_reproducible() {
        let vulns = VulnConfig::all();
        let source = generate_complete(&GenConfig {
            seed: 2,
            warmup: 20,
            body_len: 5,
        });
        assert!(!still_compromises(&source, &vulns), "seed 2 became a find");
        let find = Find {
            seed: 2,
            source,
            outcome: VdcOutcome::Crashed(String::new()),
        };
        assert_eq!(
            minimize(&find, &vulns).unwrap_err(),
            MinimizeError::NotReproducible
        );
    }
}

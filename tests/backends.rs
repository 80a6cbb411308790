//! Differential over the optimizing tier: the interpreter is the oracle,
//! and the full LIR backend (lowering, out-of-SSA, register allocation,
//! decoding) must agree with it on every workload — while keeping every
//! exploit demonstrator's outcome, because the optimizing tier is the
//! only tier that performs raw memory accesses.

use jitbull_jit::engine::{Engine, EngineConfig};
use jitbull_jit::{CveId, VulnConfig};
use jitbull_vdc::validate::run_script;
use jitbull_vdc::vdc;
use jitbull_workloads::all_workloads;

fn run(source: &str, jit: bool) -> Vec<String> {
    Engine::run_source(
        source,
        EngineConfig {
            jit_enabled: jit,
            ..Default::default()
        },
    )
    .map(|o| o.outcome.printed)
    .unwrap_or_else(|e| vec![format!("error: {e}")])
}

#[test]
fn all_workloads_agree_across_backends() {
    for w in all_workloads() {
        let interp = run(&w.source, false);
        let lir = run(&w.source, true);
        assert_eq!(interp, lir, "{}: LIR backend diverged", w.name);
    }
}

#[test]
fn exploits_work_through_the_optimizing_tier() {
    for cve in CveId::security_set() {
        let poc = vdc(cve);
        let mut engine = Engine::new(EngineConfig {
            vulns: VulnConfig::with([cve]),
            ..Default::default()
        });
        let outcome = run_script(&poc.source, &mut engine).unwrap();
        assert!(outcome.matches(poc.expected), "{}: {outcome:?}", poc.name);
    }
}

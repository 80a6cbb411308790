//! The paper's fuzzer-integration story (§IV-A threat model):
//!
//! > "one way to use JITBULL is to feed the output of JIT fuzzers
//! > directly to its database. In this way, as soon as a crashing code
//! > example is detected, JITBULL will be able to automatically prevent
//! > similar exploit codes from running."
//!
//! Runs a seeded fuzz campaign against an engine carrying all eight
//! modeled vulnerabilities, minimizes the first few finds, feeds their
//! DNA into a shared database (with the iterated triage loop for
//! multi-vulnerability finds), and shows every find bouncing off the
//! resulting protection.
//!
//! ```text
//! cargo run --release --example fuzzer_to_db
//! ```

use jitbull::{CompareConfig, DnaDatabase, Guard};
use jitbull_fuzzer::harness::campaign_engine;
use jitbull_fuzzer::{install_until_neutralized, minimize, run_campaign};
use jitbull_jit::engine::Engine;
use jitbull_jit::VulnConfig;
use jitbull_telemetry::NoopCollector;
use jitbull_vdc::validate::run_script;

fn main() -> Result<(), jitbull_vm::VmError> {
    let vulns = VulnConfig::all();

    println!("fuzzing 256 seeds against the vulnerable engine…");
    let report = run_campaign(0, 256, &vulns, &mut NoopCollector)?;
    println!(
        "  {} programs ran, {} security-relevant finds\n",
        report.executed,
        report.finds.len()
    );

    let mut db = DnaDatabase::new();
    for find in report.finds.iter().take(6) {
        let min = minimize(find, &vulns).expect("campaign finds reproduce");
        println!(
            "seed {:>4}: {:?}; minimized {} -> {} bytes",
            find.seed,
            find.outcome,
            find.source.len(),
            min.source.len()
        );
        let neutralized = install_until_neutralized(&mut db, &min, &vulns, 6, &mut NoopCollector)?;
        println!(
            "           DNA installed (db now {} entries); triage loop: {}",
            db.len(),
            if neutralized { "neutralized" } else { "EVADES" }
        );
    }

    println!("\nre-running every find under the fuzz-built database:");
    let guard = Guard::new(db, CompareConfig::default());
    let mut bounced = 0;
    for find in &report.finds {
        let mut engine = Engine::with_guard(campaign_engine(vulns.clone()), guard.clone());
        let outcome = run_script(&find.source, &mut engine)?;
        if !outcome.is_compromised() {
            bounced += 1;
        }
    }
    println!(
        "  {} / {} finds neutralized by DNA from just the first 6",
        bounced,
        report.finds.len()
    );
    Ok(())
}

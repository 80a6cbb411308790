//! Captures build facts (compiler version, profile, source commit) so every
//! result the benchmark prints names the build it came from.

use std::process::Command;

fn run(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_owned())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = run(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_owned());
    let commit = run("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_owned());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_owned());
    println!("cargo:rustc-env=WALLBENCH_RUSTC={version}");
    println!("cargo:rustc-env=WALLBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=WALLBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
    for head in ["../.git/HEAD", "../.git/refs/heads"] {
        if std::path::Path::new(head).exists() {
            println!("cargo:rerun-if-changed={head}");
        }
    }
}

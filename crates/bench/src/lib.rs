//! # jitbull-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§III and
//! §VI) against the simulated substrate:
//!
//! | Artifact | Module | `repro` subcommand |
//! |---|---|---|
//! | Table I (CVE survey) | [`registry`] | `table1` |
//! | §III-C window stats | [`registry`] | `window` |
//! | §VI-B security eval | [`security`] | `security` |
//! | Figure 4 (FP rates) | [`figures`] | `fig4` |
//! | Figure 5 (exec times) | [`figures`] | `fig5` |
//! | Figure 6 (scalability) | [`figures`] | `fig6` |
//! | Thr/Ratio ablation | [`ablation`] | `ablation` |
//! | Policy ablation | [`ablation`] | `ablation-policy` |
//! | Telemetry report | [`obs`] | `obs` |
//! | Chaos fault ladder | [`chaos_bench`] | `chaos` |
//!
//! Absolute numbers come from the deterministic cycle model, so they will
//! not equal the paper's milliseconds; the *shapes* (who wins, by what
//! factor, where curves flatten) are the reproduction targets — see
//! `EXPERIMENTS.md`.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod chaos_bench;
pub mod figures;
pub mod obs;
pub mod pool_bench;
pub mod registry;
pub mod security;
pub mod timing;

/// Renders a fixed-width text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: Vec<String>| {
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", c, width = widths[i]));
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    line(&mut out, headers.iter().map(|h| h.to_string()).collect());
    line(&mut out, widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(&mut out, row.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
    }
}

//! Seeded generator of distinct request scripts for `serve-unique`.
//!
//! The DNA memo keys a compilation by the *shape* of its MIR: snapshot
//! labels drop literals, so scripts that differ only in their constants
//! all hit the memo after the first. Each script here therefore varies
//! its statement shapes, expression trees and helper functions, so the
//! memo and the comparator's verdict cache miss on nearly every request.
//!
//! Values stay small integers (every accumulator is masked to 20 bits and
//! every product has a small constant factor), so no tier leaves the
//! int32 range and every tier must print the same checksum.

use crate::util::Rng;

const MASK: &str = "1048575";

/// Script `index` of the stream for `seed`. The same pair always gives
/// the same script.
pub fn script(seed: u64, index: u64) -> String {
    let mut rng = Rng::stream(seed, 0x5c21_7000 ^ index.wrapping_mul(0x9e37_79b9));
    Gen {
        rng: &mut rng,
        loops: 0,
        helpers: Vec::new(),
    }
    .program()
}

struct Gen<'a> {
    rng: &'a mut Rng,
    loops: usize,
    helpers: Vec<String>,
}

impl Gen<'_> {
    fn pick<'s>(&mut self, items: &[&'s str]) -> &'s str {
        items[self.rng.below(items.len() as u64) as usize]
    }

    fn konst(&mut self) -> String {
        self.rng.range(1, 97).to_string()
    }

    fn leaf(&mut self) -> String {
        match self.rng.below(6) {
            0 => "a".to_owned(),
            1 => "b".to_owned(),
            2 => "i".to_owned(),
            3 => "t".to_owned(),
            4 => "u".to_owned(),
            _ => self.konst(),
        }
    }

    /// An expression tree of at most `depth` operator levels.
    fn expr(&mut self, depth: u32) -> String {
        if depth == 0 || self.rng.below(3) == 0 {
            return self.leaf();
        }
        if self.rng.below(5) == 0 {
            // Products keep one small constant factor.
            let k = self.rng.range(2, 31);
            return format!("({} * {k})", self.expr(depth - 1));
        }
        let op = self.pick(&["+", "-", "^", "&", "|"]);
        let lhs = self.expr(depth - 1);
        let rhs = self.expr(depth - 1);
        format!("({lhs} {op} {rhs})")
    }

    fn masked(&mut self, var: &str) -> String {
        let op = self.pick(&["+", "^", "-"]);
        let e = self.expr(2);
        format!("{var} = ({var} {op} {e}) & {MASK};")
    }

    fn statement(&mut self) -> String {
        match self.rng.below(8) {
            0 | 1 => self.masked("t"),
            2 => self.masked("u"),
            3 => {
                let bits = self.pick(&["1", "3", "7"]);
                let then = self.masked("t");
                let other = self.masked("u");
                format!("if ((i & {bits}) == 0) {{ {then} }} else {{ {other} }}")
            }
            4 => {
                let then = self.masked("u");
                format!("if (t > u) {{ t = t - u; }} else {{ {then} }}")
            }
            5 => {
                self.loops += 1;
                let j = format!("j{}", self.loops);
                let n = self.rng.range(2, 5);
                let body = self.masked("t");
                format!("for (var {j} = 0; {j} < {n}; {j}++) {{ {body} }}")
            }
            6 => {
                // Masked, in-bounds element traffic on a local array.
                let e = self.expr(1);
                let k = self.rng.range(1, 7);
                format!("s[i & 7] = {e} & {MASK}; t = (t + s[(i + {k}) & 7]) & {MASK};")
            }
            _ => {
                let name = format!("g{}", self.helpers.len());
                let body = self.helper_body();
                self.helpers
                    .push(format!("function {name}(x, y) {{ {body} }}"));
                let e = self.expr(1);
                format!("u = (u + {name}({e}, i)) & {MASK};")
            }
        }
    }

    /// A helper over `(x, y)`: one to three masked updates of a local,
    /// with the same expression trees the hot loop uses.
    fn helper_body(&mut self) -> String {
        let mut body = format!("var v = (x ^ y) & {MASK};");
        for _ in 0..self.rng.range(1, 3) {
            let op = self.pick(&["+", "^", "-"]);
            let e = self.helper_expr(2);
            if self.rng.below(3) == 0 {
                body.push_str(&format!(" if (v > y) {{ v = (v {op} {e}) & {MASK}; }}"));
            } else {
                body.push_str(&format!(" v = (v {op} {e}) & {MASK};"));
            }
        }
        body.push_str(" return v;");
        body
    }

    fn helper_expr(&mut self, depth: u32) -> String {
        if depth == 0 || self.rng.below(3) == 0 {
            return match self.rng.below(4) {
                0 => "x".to_owned(),
                1 => "y".to_owned(),
                2 => "v".to_owned(),
                _ => self.konst(),
            };
        }
        let op = self.pick(&["+", "-", "^", "&", "|"]);
        let lhs = self.helper_expr(depth - 1);
        let rhs = self.helper_expr(depth - 1);
        format!("({lhs} {op} {rhs})")
    }

    fn program(mut self) -> String {
        let n_stmts = self.rng.range(2, 4);
        let body: Vec<String> = (0..n_stmts).map(|_| self.statement()).collect();
        let trip = self.rng.range(12, 32);
        let calls = self.rng.range(20, 40);
        let t0 = self.konst();
        let u0 = self.konst();
        let finish = self.pick(&["t ^ u", "t + u", "t - u"]);
        let b = self.konst();
        let mut src = String::new();
        for h in &self.helpers {
            src.push_str(h);
            src.push('\n');
        }
        src.push_str(&format!(
            "function h(a, b) {{\n  var t = {t0};\n  var u = {u0};\n  var s = new Array(8);\n  \
             for (var z = 0; z < 8; z++) {{ s[z] = z; }}\n  \
             for (var i = 0; i < {trip}; i++) {{\n    {}\n  }}\n  return ({finish}) & {MASK};\n}}\n",
            body.join("\n    ")
        ));
        src.push_str(&format!(
            "var r = 0;\nfor (var k = 0; k < {calls}; k++) {{ r = (r + h(k, {b})) & {MASK}; }}\nprint(r);\n"
        ));
        src
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull::{CompareConfig, DnaMemo};
    use jitbull_jit::engine::EngineConfig;
    use jitbull_pool::{Pool, PoolConfig, Request};
    use jitbull_workloads::{run_workload, Workload};

    #[test]
    fn scripts_are_deterministic_per_seed_and_index() {
        assert_eq!(script(3, 17), script(3, 17));
        assert_ne!(script(3, 17), script(3, 18));
        assert_ne!(script(3, 17), script(4, 17));
    }

    /// Over a seeded batch served the way `serve-unique` serves it, the
    /// shared DNA memo almost never hits, every script runs clean, and
    /// every script prints what an interpreter-only run prints.
    #[test]
    fn batch_misses_the_memo_and_matches_the_interpreter() {
        let (db, vulns) = jitbull_bench::figures::db_with(4);
        let memo = DnaMemo::default();
        let pool = Pool::new(
            PoolConfig {
                workers: 2,
                capacity: 512,
                compare: CompareConfig::default(),
                memo: memo.clone(),
                ..PoolConfig::default()
            },
            db,
        );
        let config = EngineConfig {
            vulns,
            ..EngineConfig::fast_test()
        };
        let sources: Vec<String> = (0..300).map(|i| script(11, i)).collect();
        let tickets: Vec<_> = sources
            .iter()
            .map(|s| {
                pool.submit(Request::new(s.clone()).with_config(config.clone()))
                    .expect("capacity covers the batch")
            })
            .collect();
        for (source, ticket) in sources.iter().zip(tickets) {
            let served = ticket.wait().expect("script serves");
            let w = Workload {
                name: "generated",
                source: source.clone(),
            };
            let interp = run_workload(
                &w,
                EngineConfig {
                    jit_enabled: false,
                    ..EngineConfig::default()
                },
                None,
            )
            .expect("interpreter runs the script");
            assert_eq!(served.printed, interp.printed, "{source}");
            assert!(served.nr_jit >= 1, "no Ion compile:\n{source}");
            let guarded = run_workload(
                &w,
                EngineConfig {
                    vulns: config.vulns.clone(),
                    ..EngineConfig::fast_test()
                },
                Some(jitbull_bench::figures::db_with(4).0),
            )
            .expect("script runs clean under the guard");
            assert_eq!(guarded.printed, interp.printed, "{source}");
        }
        pool.shutdown();
        let stats = memo.stats();
        let ratio = stats.hits as f64 / stats.lookups.max(1) as f64;
        assert!(stats.lookups >= 300, "{stats:?}");
        assert!(ratio < 0.05, "memo hit ratio {ratio}: {stats:?}");
    }
}

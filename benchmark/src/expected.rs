//! The hand-written reference answers under `expected/`.

use subsub_core::AlgorithmLevel;

/// The execution strategy a decision selects (the benchmark's own
/// spelling; the kernels crate has its own).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// No parallel loop in the nest.
    Serial,
    /// Parallel below the outermost loop only.
    Inner,
    /// The outermost loop is parallel.
    Outer,
}

/// One row of `expected/decisions.tsv`.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Registry kernel name, or `corpus/<file>`.
    pub source: String,
    /// The function the row is about.
    pub function: String,
    /// `subsub`, `regular` or `corpus`.
    pub class: String,
    /// Analysis level.
    pub level: AlgorithmLevel,
    /// Expected variant of the last top-level nest.
    pub variant: Variant,
    /// Expected runtime-check text.
    pub check: Option<String>,
}

/// The three levels with the names the TSV uses.
pub const LEVELS: [(AlgorithmLevel, &str); 3] = [
    (AlgorithmLevel::Classic, "classic"),
    (AlgorithmLevel::Base, "base"),
    (AlgorithmLevel::New, "new"),
];

fn rows(text: &'static str) -> impl Iterator<Item = Vec<&'static str>> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.split('\t').collect())
}

/// Every expected decision. Panics on a malformed file: the file is
/// part of the benchmark, not an input.
pub fn decisions() -> Vec<Expected> {
    rows(include_str!("../expected/decisions.tsv"))
        .map(|cols| {
            let [source, function, class, level, variant, check] = cols[..] else {
                panic!("decisions.tsv: expected 6 columns in {cols:?}");
            };
            Expected {
                source: source.to_string(),
                function: function.to_string(),
                class: class.to_string(),
                level: LEVELS
                    .iter()
                    .find(|(_, name)| *name == level)
                    .unwrap_or_else(|| panic!("decisions.tsv: level {level}"))
                    .0,
                variant: match variant {
                    "serial" => Variant::Serial,
                    "inner" => Variant::Inner,
                    "outer" => Variant::Outer,
                    other => panic!("decisions.tsv: variant {other}"),
                },
                check: (check != "-").then(|| check.to_string()),
            }
        })
        .collect()
}

/// The expected decision for one registry kernel at one level.
pub fn decision_for(all: &[Expected], kernel: &str, level: AlgorithmLevel) -> Expected {
    all.iter()
        .find(|e| e.source == kernel && e.level == level)
        .unwrap_or_else(|| panic!("decisions.tsv has no row for {kernel} at {level:?}"))
        .clone()
}

/// `(recipe, diagnostic code)` rows of `expected/rejects.tsv`.
pub fn rejects() -> Vec<(&'static str, &'static str)> {
    rows(include_str!("../expected/rejects.tsv"))
        .map(|cols| match cols[..] {
            [recipe, code] => (recipe, code),
            _ => panic!("rejects.tsv: expected 2 columns in {cols:?}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_covers_sixteen_kernels_at_three_levels() {
        let all = decisions();
        let kernels: std::collections::BTreeSet<&str> = all
            .iter()
            .filter(|e| e.class != "corpus")
            .map(|e| e.source.as_str())
            .collect();
        assert_eq!(kernels.len(), 16);
        for k in &kernels {
            for (level, _) in LEVELS {
                decision_for(&all, k, level);
            }
        }
        assert_eq!(all.iter().filter(|e| e.class == "corpus").count(), 9);
    }

    /// Figure 17: a kernel improves when its outermost loop runs in
    /// parallel, or an inner one does and the kernel is regular.
    #[test]
    fn the_table_is_consistent_with_figure_17() {
        let all = decisions();
        let improved = |level| {
            all.iter()
                .filter(|e| e.class != "corpus" && e.level == level)
                .filter(|e| {
                    e.variant == Variant::Outer
                        || (e.variant == Variant::Inner && e.class == "regular")
                })
                .count()
        };
        assert_eq!(improved(AlgorithmLevel::Classic), 6);
        assert_eq!(improved(AlgorithmLevel::Base), 8);
        assert_eq!(improved(AlgorithmLevel::New), 13);
    }

    #[test]
    fn a_check_only_guards_a_parallel_nest() {
        for e in decisions() {
            assert!(e.check.is_none() || e.variant != Variant::Serial, "{e:?}");
        }
    }

    #[test]
    fn every_reject_recipe_names_a_code() {
        let r = rejects();
        assert_eq!(r.len(), 4);
        assert!(r
            .iter()
            .all(|(recipe, code)| !recipe.is_empty() && code.contains('-')));
    }
}

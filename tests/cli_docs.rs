//! README's "Simulation axes" table lists exactly the flags of
//! `SimParams::USAGE` — the one usage block every binary prints.

use std::collections::BTreeSet;

use hmc_sim::hmc_core::SimParams;

/// Every `--flag` token in `text`.
fn flags(text: &str) -> BTreeSet<String> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|t| t.strip_prefix("--").is_some_and(|name| name.starts_with(char::is_alphabetic)))
        .map(str::to_string)
        .collect()
}

#[test]
fn readme_axes_table_matches_the_usage_constant() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md is readable");
    let section = readme
        .split("### Simulation axes")
        .nth(1)
        .expect("README has a Simulation axes section");
    let table: String = section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(flags(&table), flags(SimParams::USAGE));
    assert_eq!(flags(SimParams::USAGE).len(), 15);
}

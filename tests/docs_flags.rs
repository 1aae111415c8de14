//! `docs/flags.md` is checked, not trusted: every public field of
//! `Config` and every statistics key `EvalStats::visit` yields must appear
//! (as `` `name` ``) in the flags tables, and every CLI flag the binary
//! parses must be mentioned there and in the binary's usage string — so a
//! new toggle or counter cannot land undocumented.

use recstep::EvalStats;

const FLAGS_MD: &str = include_str!("../docs/flags.md");
const CONFIG_RS: &str = include_str!("../crates/core/src/config.rs");
const BIN_RS: &str = include_str!("../crates/serve/src/bin/recstep.rs");

/// Public field names of the struct named `name` in `src` (brace-counted,
/// one `pub struct` per name assumed — true for these files).
fn pub_fields(src: &str, name: &str) -> Vec<String> {
    let header = format!("pub struct {name} {{");
    let start = src
        .find(&header)
        .unwrap_or_else(|| panic!("struct {name} not found"))
        + header.len();
    let mut depth = 1usize;
    let mut body_end = start;
    for (i, c) in src[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    body_end = start + i;
                    break;
                }
            }
            _ => {}
        }
    }
    let body = &src[start..body_end];
    body.lines()
        .filter_map(|l| {
            let l = l.trim();
            let rest = l.strip_prefix("pub ")?;
            let colon = rest.find(':')?;
            let name = rest[..colon].trim();
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_')
                .then(|| name.to_string())
        })
        .collect()
}

#[test]
fn every_config_field_is_documented() {
    let fields = pub_fields(CONFIG_RS, "Config");
    assert!(fields.len() >= 15, "parsed Config fields: {fields:?}");
    for f in fields {
        assert!(
            FLAGS_MD.contains(&format!("`{f}`")),
            "Config field `{f}` missing from docs/flags.md"
        );
    }
}

#[test]
fn every_stats_field_is_documented() {
    let mut keys = Vec::new();
    EvalStats::default().visit(&mut |key, _| keys.push(key));
    assert!(keys.len() >= 60, "visited stats keys: {keys:?}");
    for key in keys {
        assert!(
            FLAGS_MD.contains(&format!("`{key}`")),
            "stats key `{key}` missing from docs/flags.md"
        );
    }
}

#[test]
fn every_cli_flag_is_documented_and_in_usage() {
    // Flags are the string-literal match arms of the binary's parser.
    let mut flags: Vec<String> = Vec::new();
    for line in BIN_RS.lines() {
        let l = line.trim();
        if let Some(rest) = l.strip_prefix("\"--") {
            if let Some(end) = rest.find('"') {
                let flag = &rest[..end];
                // Real flags are bare words; skip `println!` literals that
                // merely start with `--` (e.g. the --explain banner).
                if flag.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
                    flags.push(format!("--{flag}"));
                }
            }
        }
    }
    assert!(
        flags.len() >= 15,
        "parsed CLI flags from the binary: {flags:?}"
    );
    let usage: String = BIN_RS
        .lines()
        .skip_while(|l| !l.contains("usage: recstep"))
        .take(10)
        .collect();
    for f in &flags {
        if f == "--help" {
            continue; // -h/--help prints the usage itself
        }
        assert!(
            FLAGS_MD.contains(f.as_str()),
            "CLI flag {f} missing from docs/flags.md"
        );
        assert!(
            usage.contains(f.as_str()),
            "CLI flag {f} missing from usage()"
        );
    }
    // The ablation trio the issue calls out must be mentioned together.
    for f in [
        "--no-index-reuse",
        "--no-fused-pipeline",
        "--no-shared-index-cache",
        "--index-cache-budget",
    ] {
        assert!(usage.contains(f), "{f} absent from --help usage");
    }
}

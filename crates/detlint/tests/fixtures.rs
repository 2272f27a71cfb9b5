//! Fixture-driven acceptance tests for the analyzer, plus the
//! live-workspace gate.
//!
//! Each `fixtures/bad/*.rs` file pairs with a `.expected` golden of
//! `line rule` entries; drift in either direction fails with a diff
//! you can paste back into the golden. `fixtures/allowed/justified.rs`
//! additionally pins the suppression contract: it scans clean as
//! written, and deleting ANY single directive makes the scan fail —
//! the property the CI gate relies on.

use detlint::{analyze, parse_config, Config};

/// Fixture scan roles, mirroring how detlint.toml assigns the live
/// tree's roles. `clean.rs` and `justified.rs` get BOTH roles so they
/// prove cleanliness against every rule family at once.
fn fixture_config() -> Config {
    let toml = r#"
sim = [
    "fixtures/bad/determinism.rs",
    "fixtures/bad/suppress.rs",
    "fixtures/good/clean.rs",
    "fixtures/allowed/justified.rs",
]
protocol = [
    "fixtures/bad/protocol.rs",
    "fixtures/good/clean.rs",
    "fixtures/allowed/justified.rs",
]
skip = []
"#;
    parse_config(toml, Config::default()).expect("fixture config parses")
}

fn fixture_src(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn scan(rel: &str) -> detlint::FileReport {
    analyze(rel, &fixture_src(rel), &fixture_config())
}

fn check_golden(rel: &str) {
    let actual: Vec<String> =
        scan(rel).findings.iter().map(|f| format!("{} {}", f.line, f.rule)).collect();
    let golden_rel = rel.replace(".rs", ".expected");
    let expected: Vec<String> = fixture_src(&golden_rel)
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    assert_eq!(
        actual,
        expected,
        "\n{rel} drifted from {golden_rel}; actual findings were:\n{}\n",
        actual.join("\n")
    );
}

#[test]
fn determinism_fixture_matches_golden() {
    check_golden("fixtures/bad/determinism.rs");
}

#[test]
fn protocol_fixture_matches_golden() {
    check_golden("fixtures/bad/protocol.rs");
}

#[test]
fn suppress_fixture_matches_golden() {
    check_golden("fixtures/bad/suppress.rs");
}

#[test]
fn clean_fixture_is_clean() {
    let report = scan("fixtures/good/clean.rs");
    assert!(report.findings.is_empty(), "unexpected findings: {:?}", report.findings);
    assert_eq!(report.directives, 0, "clean fixture must not need directives");
}

#[test]
fn justified_fixture_is_suppressed_clean() {
    let report = scan("fixtures/allowed/justified.rs");
    assert!(report.findings.is_empty(), "unexpected findings: {:?}", report.findings);
    assert!(report.suppressed >= 4, "expected several suppressed findings");
    assert_eq!(report.directives, 4);
}

/// The governance property end to end: every directive in the allowed
/// fixture is load-bearing. Deleting any ONE of them re-surfaces a
/// finding (or trips S002 on a now-dangling sibling), so a scan of the
/// edited file is non-clean — which is exit code 1 at the CLI.
#[test]
fn deleting_any_suppression_fails_the_scan() {
    let rel = "fixtures/allowed/justified.rs";
    let src = fixture_src(rel);
    let directive_lines: Vec<usize> = src
        .lines()
        .enumerate()
        .filter(|(_, l)| l.trim_start().starts_with("// detlint::allow"))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(directive_lines.len(), 4, "fixture should carry 4 directives");
    for &del in &directive_lines {
        let edited: String = src
            .lines()
            .enumerate()
            .filter(|&(i, _)| i != del)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let report = analyze(rel, &edited, &fixture_config());
        assert!(
            !report.findings.is_empty(),
            "deleting the directive on line {} left the scan clean — \
             that suppression was not load-bearing",
            del + 1
        );
    }
}

// ---------------------------------------------------------------
// Cross-file rule families (W / T / X / P-reachability). Each family
// scans its own fixture set with a config that enables only that
// family, and pins a `file line rule` golden.
// ---------------------------------------------------------------

/// Scans a fixture set with a family-specific config. Keys absent from
/// the TOML keep their compiled-in defaults, so each family config
/// explicitly empties the lists that would enable the other families.
fn scan_set(rels: &[&str], toml: &str) -> detlint::ScanReport {
    let config = parse_config(toml, Config::default()).expect("family config parses");
    let sources: Vec<(String, String)> =
        rels.iter().map(|r| ((*r).to_string(), fixture_src(r))).collect();
    detlint::scan_sources(&sources, &config)
}

fn check_set_golden(report: &detlint::ScanReport, golden_rel: &str) {
    let actual: Vec<String> =
        report.findings.iter().map(|f| format!("{} {} {}", f.file, f.line, f.rule)).collect();
    let expected: Vec<String> = fixture_src(golden_rel)
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    assert_eq!(
        actual,
        expected,
        "\nfixture set drifted from {golden_rel}; actual findings were:\n{}\n",
        actual.join("\n")
    );
}

const WELD_TOML: &str = r#"
sim = []
protocol = []
wire_enums = []
scheduler_roots = []
weld_scope = ["fixtures/weld/**"]
weld_facade = ["fixtures/weld/facade.rs"]
"#;

#[test]
fn weld_fixture_matches_golden() {
    let report = scan_set(&["fixtures/weld/core.rs", "fixtures/weld/facade.rs"], WELD_TOML);
    check_set_golden(&report, "fixtures/weld/set.expected");
    // Suppressed welds still land in the weld map (the ratchet bounds
    // the *total* IO surface), flagged as governed.
    let suppressed: Vec<&str> =
        report.welds.iter().filter(|w| w.suppressed).map(|w| w.rule).collect();
    assert_eq!(suppressed, ["W001", "W002"], "welds: {:?}", report.welds);
    assert!(report.welds.len() > suppressed.len(), "unsuppressed welds must also appear");
    assert!(
        report.welds.iter().all(|w| !w.file.contains("facade")),
        "facade files must never produce welds: {:?}",
        report.welds
    );
}

const TOTALITY_TOML: &str = r#"
sim = []
protocol = []
weld_scope = []
scheduler_roots = []
wire_enums = ["Payload"]
handler_fns = ["on_deliver", "on_direct"]
"#;

#[test]
fn totality_fixture_matches_golden() {
    let report = scan_set(&["fixtures/totality/wire.rs"], TOTALITY_TOML);
    check_set_golden(&report, "fixtures/totality/set.expected");
}

const SCHED_TOML: &str = r#"
sim = []
protocol = []
weld_scope = []
wire_enums = []
scheduler_roots = ["Sched::run"]
scheduler_scope = ["fixtures/sched/sched.rs"]
"#;

#[test]
fn sched_fixture_matches_golden() {
    let report = scan_set(&["fixtures/sched/sched.rs"], SCHED_TOML);
    check_set_golden(&report, "fixtures/sched/set.expected");
    assert!(
        !report.findings.iter().any(|f| f.line > 33),
        "helpers unreachable from the scheduler roots must not be flagged: {:?}",
        report.findings
    );
}

const REACH_TOML: &str = r#"
sim = []
weld_scope = []
wire_enums = []
scheduler_roots = []
protocol = ["fixtures/reach/proto.rs"]
protocol_entries = ["on_message"]
"#;

#[test]
fn reachability_fixture_matches_golden() {
    let report = scan_set(&["fixtures/reach/proto.rs"], REACH_TOML);
    check_set_golden(&report, "fixtures/reach/set.expected");
    let s002 = report
        .findings
        .iter()
        .find(|f| f.rule == "S002")
        .expect("the out-of-cone suppression must be flagged stale");
    assert!(
        s002.message.contains("not reachable"),
        "S002 should explain WHY the directive is stale: {}",
        s002.message
    );
}

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/detlint")
        .to_path_buf()
}

/// The live tree must scan clean with the checked-in config — the same
/// gate CI runs via `cargo run -p detlint`. Running it as a test means
/// `cargo test` alone catches a regression.
#[test]
fn live_workspace_is_clean() {
    let root = workspace_root();
    let config = detlint::load_config(&root).expect("detlint.toml loads");
    let scan = detlint::scan_workspace(&root, &config).expect("workspace scans");
    assert!(
        scan.clean(),
        "live workspace has {} detlint finding(s); run `cargo run -p detlint` for the report:\n{}",
        scan.findings.len(),
        scan.findings
            .iter()
            .map(|f| format!("  {}:{} {}", f.file, f.line, f.rule))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Whether a committed weld map still pins `welds`: the same entries,
/// line numbers ignored.
fn weld_map_pins(committed: &str, welds: &[detlint::Weld]) -> bool {
    detlint::weld_map_inventory(committed)
        == detlint::weld_map_inventory(&detlint::render_weld_map(welds))
}

/// The committed `results/weld_map.json` must match the welds the tree
/// actually produces — it is the CI ratchet's baseline, so drift in
/// either direction is a failure. Welds are compared on everything but
/// their line, which the map records for the reader only.
/// Regenerate with `cargo run -p detlint -- --weld-map results/weld_map.json`.
#[test]
fn committed_weld_map_is_current() {
    let root = workspace_root();
    let config = detlint::load_config(&root).expect("detlint.toml loads");
    let scan = detlint::scan_workspace(&root, &config).expect("workspace scans");
    let committed = std::fs::read_to_string(root.join("results/weld_map.json"))
        .expect("results/weld_map.json is committed");
    assert_eq!(
        detlint::weld_map_inventory(&committed),
        detlint::weld_map_inventory(&detlint::render_weld_map(&scan.welds)),
        "results/weld_map.json is stale; regenerate with \
         `cargo run -p detlint -- --weld-map results/weld_map.json`"
    );
    let count = detlint::weld_map_count(&committed).expect("weld map carries a count");
    assert_eq!(count, scan.welds.len(), "committed count must match the weld list");
}

/// The pin tracks the weld inventory, not line numbers: shifting lines
/// keeps a map current, while adding a weld, removing one or moving one
/// to another fn stales it.
#[test]
fn weld_map_pin_tracks_inventory_not_lines() {
    const CORE: &str = "fixtures/weld/core.rs";
    let src = fixture_src(CORE);
    let welds_of = |core_src: String| {
        let config = parse_config(WELD_TOML, Config::default()).expect("weld config parses");
        let sources = [
            (CORE.to_string(), core_src),
            ("fixtures/weld/facade.rs".to_string(), fixture_src("fixtures/weld/facade.rs")),
        ];
        detlint::scan_sources(&sources, &config).welds
    };
    let base = welds_of(src.clone());
    let committed = detlint::render_weld_map(&base);
    assert!(weld_map_pins(&committed, &base));

    let shifted =
        welds_of(src.replacen("use std::time::Instant;", "\n\nuse std::time::Instant;", 1));
    assert_ne!(shifted[0].line, base[0].line, "the edit must move lines");
    assert!(weld_map_pins(&committed, &shifted), "a line shift alone must not stale the map");

    let added =
        welds_of(format!("{src}\npub fn extra_clock() -> Instant {{\n    Instant::now()\n}}\n"));
    assert!(!weld_map_pins(&committed, &added), "an added weld must stale the map");

    let removed = welds_of(src.replacen(
        "    std::thread::sleep(std::time::Duration::from_millis(1));\n",
        "",
        1,
    ));
    assert!(removed.len() < base.len(), "the edit must remove a weld");
    assert!(!weld_map_pins(&committed, &removed), "a removed weld must stale the map");

    let moved = welds_of(src.replace("read_clock", "read_wall_clock"));
    assert_eq!(moved.len(), base.len());
    assert!(!weld_map_pins(&committed, &moved), "a weld moved to another fn must stale the map");
}

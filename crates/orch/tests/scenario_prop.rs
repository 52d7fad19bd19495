//! No-panic property test for the scenario parser: mutated copies of the
//! committed `scenarios/*.toml` either fail to parse or parse into a
//! scenario whose every cell is a spec the front door can expand, and
//! the parser never panics.

use proptest::prelude::*;

const SCENARIOS: [&str; 2] = [
    include_str!("../../../scenarios/smoke.toml"),
    include_str!("../../../scenarios/soundness.toml"),
];

/// Fragments spliced into scenario text: TOML and JSON punctuation,
/// axis values near the accepted ones, numbers at and past the limits,
/// and multi-byte characters.
const PIECES: &[&str] = &[
    "\"",
    "[",
    "]",
    "[[",
    "{",
    "}",
    ",",
    "=",
    " ",
    "\n",
    "#",
    ".",
    "'",
    "-1",
    "0",
    "1e309",
    "NaN",
    "18446744073709551616",
    "true",
    "\"verify\"",
    "\"on\"",
    "\"stuck-at:3=1\"",
    "\"memory-cell\"",
    "\"sse4\"",
    "\"paper\"",
    "\n[invariants]\n",
    "é",
    "€",
    "🦀",
];

/// Apply one edit per word of `ops` to `text`, always on character
/// boundaries: insert a fragment, delete a short span, duplicate a span,
/// or (rarely) truncate.
fn mutate(text: &str, ops: &[u64]) -> String {
    let mut s = text.to_string();
    for &op in ops {
        let cuts: Vec<usize> = (0..=s.len()).filter(|&i| s.is_char_boundary(i)).collect();
        let i = (op >> 8) as usize % cuts.len();
        let j = (i + 1 + (op >> 40) as usize % 12).min(cuts.len() - 1);
        let (at, end) = (cuts[i], cuts[j]);
        match op % 8 {
            0..=2 => s.insert_str(at, PIECES[(op >> 16) as usize % PIECES.len()]),
            3..=4 => s.replace_range(at..end, ""),
            5..=6 => {
                let span = s[at..end].to_string();
                s.insert_str(at, &span);
            }
            _ => s.truncate(at),
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_scenarios_never_panic(
        which in 0usize..2,
        ops in prop::collection::vec(any::<u64>(), 1..5),
    ) {
        let text = mutate(SCENARIOS[which], &ops);
        if let Ok(scenario) = vulfi_orch::parse_scenario(&text) {
            for spec in scenario.expand() {
                let valid = spec.validate().and_then(|_| spec.study_config());
                prop_assert!(valid.is_ok(), "{text}\n{spec:?}: {valid:?}");
            }
        }
    }
}

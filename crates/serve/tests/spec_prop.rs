//! No-panic property tests for the submitted-spec parser: whatever JSON
//! a client sends, `spec_from_value` followed by `StudySpec::validate`
//! either refuses it or yields a spec the front door can expand, and
//! never panics.

use proptest::prelude::*;
use serde_json::{Number, Value};
use vulfi::StudySpec;

/// Fragments spliced into spec text: JSON punctuation, numbers at and
/// past the integer limits, escapes, and multi-byte characters.
const PIECES: &[&str] = &[
    "\"",
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    " ",
    "\n",
    "\\",
    "\\u00e9",
    "\\ud800",
    "0",
    "-1",
    "1.5",
    "1e309",
    "18446744073709551615",
    "18446744073709551616",
    "true",
    "null",
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

/// A valid spec, varied over every field.
fn valid_spec(pick: u64) -> StudySpec {
    const BENCHES: [&str; 4] = ["vector sum", "Stencil", "Blackscholes", "dot product"];
    const MODELS: [&str; 4] = [
        "single-bit-flip",
        "multi-bit-burst:2",
        "stuck-at:7=1",
        "memory-cell",
    ];
    let model = MODELS[(pick >> 12) as usize % MODELS.len()];
    StudySpec {
        bench: BENCHES[pick as usize % BENCHES.len()].to_string(),
        isa: ["avx", "sse"][(pick >> 2) as usize % 2].to_string(),
        category: ["pure-data", "control", "address"][(pick >> 4) as usize % 3].to_string(),
        scale: ["test", "paper"][(pick >> 6) as usize % 2].to_string(),
        experiments: 1 + (pick >> 20) as usize % 100,
        campaigns: 1 + (pick >> 28) as usize % 20,
        seed: pick >> 36,
        shard_size: 1 + (pick >> 44) as usize % 50,
        detectors: pick & (1 << 8) != 0,
        prune: model == "single-bit-flip" && pick & (1 << 9) != 0,
        model: model.to_string(),
    }
}

/// A value for field `key`: mostly of the field's own type and biased
/// towards the near misses a validator must catch, sometimes of any
/// other JSON shape.
fn field_value(key: &str, pick: u64) -> Value {
    const STRINGS: [&str; 12] = [
        "",
        "  ",
        "avx",
        "sse4",
        "control",
        "paper",
        "multi-bit-burst:0",
        "stuck-at:99=1",
        "single-bit-flip",
        "address-line:64",
        "vector sum",
        "é",
    ];
    let typed = match key {
        "detectors" | "prune" => 0,
        "experiments" | "campaigns" | "seed" | "shard_size" => 2,
        _ => 6,
    };
    let shape = match pick.is_multiple_of(4) {
        true => (pick >> 2) % 9,
        false => typed + (pick >> 2) % 2,
    };
    match shape {
        0 | 1 => Value::Bool(pick & 16 != 0),
        2 => Value::Num(Number::U((pick >> 8) % 3)),
        3 => Value::Num(Number::U(pick >> 8)),
        4 => Value::Num(Number::I(-((pick >> 8) as i64 & 0xffff))),
        5 => Value::Num(Number::F(f64::from_bits(pick))),
        6 | 7 => Value::Str(STRINGS[(pick >> 8) as usize % STRINGS.len()].to_string()),
        _ => [
            Value::Null,
            Value::Array(vec![Value::Str("avx".to_string())]),
            Value::Object(vec![("bench".to_string(), Value::Null)]),
        ][(pick >> 8) as usize % 3]
            .clone(),
    }
}

/// The property both tests check: parse and validate without panicking;
/// a spec that validates expands into a config and survives its own
/// wire round trip.
fn check(doc: &Value) -> Result<(), String> {
    let Ok(spec) = vulfi_serve::spec_from_value(doc) else {
        return Ok(());
    };
    if spec.validate().is_err() {
        return Ok(());
    }
    spec.study_config()?;
    spec.site_category()?;
    let wire = serde_json::to_value(&spec).map_err(|e| e.to_string())?;
    let back = vulfi_serve::spec_from_value(&wire)?;
    if back != spec {
        return Err(format!(
            "{spec:?} did not survive its wire round trip: {back:?}"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_spec_objects_never_panic(
        pick: u64,
        edits in prop::collection::vec((any::<u64>(), any::<u64>()), 0..6),
    ) {
        const KEYS: [&str; 13] = [
            "bench", "isa", "category", "scale", "experiments", "campaigns", "seed",
            "shard_size", "detectors", "model", "prune", "expermients", "",
        ];
        // A valid spec's fields, each edit replacing, dropping or adding one.
        let Value::Object(mut fields) = serde_json::to_value(&valid_spec(pick)).unwrap() else {
            unreachable!("a spec serializes as an object");
        };
        for &(k, v) in &edits {
            let key = KEYS[k as usize % KEYS.len()];
            fields.retain(|(name, _)| name != key);
            if k >> 32 & 3 != 0 {
                fields.push((key.to_string(), field_value(key, v)));
            }
        }
        let doc = Value::Object(fields);
        let checked = check(&doc);
        prop_assert!(checked.is_ok(), "{doc:?}: {checked:?}");
    }

    #[test]
    fn mutated_spec_text_never_panics(
        pick: u64,
        ops in prop::collection::vec(any::<u64>(), 1..4),
    ) {
        let text = serde_json::to_string(&valid_spec(pick)).unwrap();
        let mutated = mutate(&text, &ops);
        if let Ok(doc) = serde_json::from_str::<Value>(&mutated) {
            let checked = check(&doc);
            prop_assert!(checked.is_ok(), "{mutated}: {checked:?}");
        }
    }
}

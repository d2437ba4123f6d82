//! Property tests for the in-repo JSON layer (on the `tts_rng::prop`
//! harness — `TTS_PROP_CASES` / `TTS_PROP_SEED` apply).
//!
//! The properties every result file and `ttsd` request body lean on:
//!
//! * **Byte-stable round trip** — encode → parse → encode reproduces the
//!   first encoding byte for byte, from the compact and the pretty form,
//!   and the parsed document equals the original (non-finite numbers
//!   read back as `null`).
//! * **Total robustness** — no byte string makes [`parse`] panic, and any
//!   document it accepts re-encodes to a fixpoint.
//! * **Depth cap** — 128 nested arrays/objects parse; 129 are a
//!   [`JsonError`], whatever the mix of containers and whitespace.

use tts_rng::prop::prelude::*;
use tts_units::json::{parse, Json, JsonError};

/// Nesting depth [`parse`] accepts (its private `MAX_DEPTH`).
const MAX_DEPTH: usize = 128;

/// Arbitrary JSON documents, at most `depth` containers deep.
#[derive(Debug, Clone, Copy)]
struct AnyJson {
    depth: usize,
}

impl Strategy for AnyJson {
    type Value = Json;

    fn generate<R: RngCore + ?Sized>(&self, rng: &mut R) -> Json {
        any_json(rng, self.depth)
    }

    /// Containers shrink to their children (or empty), leaves to `null`.
    fn shrink(&self, value: &Json) -> Vec<Json> {
        match value {
            Json::Null => Vec::new(),
            Json::Arr(items) => std::iter::once(Json::Arr(Vec::new()))
                .chain(items.iter().cloned())
                .collect(),
            Json::Obj(members) => std::iter::once(Json::Obj(Vec::new()))
                .chain(members.iter().map(|(_, v)| v.clone()))
                .collect(),
            _ => vec![Json::Null],
        }
    }
}

fn any_json<R: RngCore + ?Sized>(rng: &mut R, depth: usize) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen()),
        2 => Json::Num(any_number(rng)),
        3 => Json::Str(any_string(rng)),
        4 => {
            let n = rng.gen_range(0usize..5);
            Json::Arr((0..n).map(|_| any_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0usize..5);
            Json::Obj(
                (0..n)
                    .map(|_| (any_string(rng), any_json(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// Small integers, plain decimals, raw bit patterns (subnormals, huge
/// exponents, `-0`, NaN and ±∞, which encode as `null`) and edge values.
fn any_number<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    const EDGES: [f64; 8] = [
        0.0,
        -0.0,
        0.1,
        1e21,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
    ];
    match rng.gen_range(0..4) {
        0 => rng.gen_range(-1000i64..1000) as f64,
        1 => rng.gen_range(-1.0e6..1.0e6),
        2 => f64::from_bits(rng.next_u64()),
        _ => EDGES[rng.gen_range(0..EDGES.len())],
    }
}

/// Strings mixing the characters the writer escapes with plain ASCII,
/// multi-byte BMP characters and astral-plane characters.
fn any_string<R: RngCore + ?Sized>(rng: &mut R) -> String {
    let n = rng.gen_range(0usize..8);
    (0..n)
        .map(|_| match rng.gen_range(0..6) {
            0 => char::from(rng.gen_range(0x20u32..0x7f) as u8),
            1 => char::from(rng.gen_range(0u32..0x20) as u8),
            2 => ['"', '\\', '/', '\u{7f}'][rng.gen_range(0usize..4)],
            3 => ['é', '€', '°', '\u{fffd}'][rng.gen_range(0usize..4)],
            4 => '𝄞',
            _ => char::from_u32(rng.gen_range(0u32..0x11_0000)).unwrap_or('x'),
        })
        .collect()
}

/// Bytes that steer a random document deep into the parser: structural
/// characters, escapes, number fragments and literal prefixes.
const TOKENS: [&str; 26] = [
    "[", "]", "{", "}", ",", ":", "\"", "\\", "\\u", "00e9", "d83d", "0", "-", ".", "e", "+", "7",
    "true", "nul", "false", " ", "\n", "\u{0}", "é", "1e999", "\"k\":",
];

/// `doc` as it reads back: non-finite numbers encode as `null`.
fn as_encoded(doc: &Json) -> Json {
    match doc {
        Json::Num(n) if !n.is_finite() => Json::Null,
        Json::Arr(items) => Json::Arr(items.iter().map(as_encoded).collect()),
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .map(|(k, v)| (k.clone(), as_encoded(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Parses `text`; when it is accepted, its encoding must be a fixpoint.
fn parse_is_total(text: &str) {
    if let Ok(doc) = parse(text) {
        let once = doc.to_string();
        let again = parse(&once).expect("an encoding always parses").to_string();
        prop_assert_eq!(once, again);
    }
}

/// `depth` containers, chosen by `kinds` (even: array, odd: object),
/// around the scalar `0`, with `pad` between tokens.
fn nested(kinds: &[u32], pad: &str) -> String {
    let mut text = String::new();
    for k in kinds {
        text.push_str(if k % 2 == 0 { "[" } else { "{\"k\":" });
        text.push_str(pad);
    }
    text.push('0');
    for k in kinds.iter().rev() {
        text.push_str(pad);
        text.push(if k % 2 == 0 { ']' } else { '}' });
    }
    text
}

proptest! {
    #![cases(256)]

    #[test]
    fn encode_parse_encode_is_byte_identical(doc in AnyJson { depth: 4 }) {
        let compact = doc.to_string();
        // Standard JSON: no raw control characters, even inside strings.
        prop_assert!(compact.bytes().all(|b| b >= 0x20), "{compact:?}");
        let reparsed = parse(&compact).expect("the writer's output parses");
        prop_assert_eq!(reparsed.to_string(), compact.clone());
        prop_assert_eq!(reparsed, as_encoded(&doc));
        let from_pretty = parse(&doc.to_string_pretty()).expect("pretty output parses");
        prop_assert_eq!(from_pretty.to_string(), compact);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(0u32..256, 0..64)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        parse_is_total(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn token_soup_never_panics(picks in collection::vec(0usize..TOKENS.len(), 0..48)) {
        let text: String = picks.into_iter().map(|i| TOKENS[i]).collect();
        parse_is_total(&text);
    }

    #[test]
    fn corrupted_documents_never_panic(
        doc in AnyJson { depth: 3 },
        edits in collection::vec((0u64..1 << 16, 0u32..256), 1..6),
        cut in 0u64..1 << 16,
    ) {
        let mut bytes = doc.to_string().into_bytes();
        for (pos, byte) in edits {
            let at = pos as usize % bytes.len();
            bytes[at] = byte as u8;
        }
        bytes.truncate(cut as usize % (bytes.len() + 1));
        parse_is_total(&String::from_utf8_lossy(&bytes));
    }
}

proptest! {
    #[test]
    fn nesting_cap_is_exactly_128_levels(
        kinds in collection::vec(0u32..2, MAX_DEPTH + 1),
        pad in 0usize..3,
    ) {
        let pad = ["", " ", "\n\t"][pad];
        let at_cap = nested(&kinds[..MAX_DEPTH], pad);
        prop_assert!(parse(&at_cap).is_ok(), "{MAX_DEPTH} levels must parse");
        let err: JsonError = parse(&nested(&kinds, pad)).expect_err("129 levels must fail");
        prop_assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
    }
}

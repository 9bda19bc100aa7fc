//! Property tests for the Liberty-lite serializer/parser pair.

use egt_pdk::{egt_library, liberty, Cell, Library};
use proptest::prelude::*;

/// What a replace edit writes: figures `Cell::is_physical` rejects,
/// values at and past `fanin`'s `u8` range, the format's punctuation,
/// and nothing at all.
const REPLACEMENTS: [&str; 11] =
    ["nan", "inf", "-inf", "-1", "1e400", "0", "256", ";", "{", "}", ""];

/// One edit of a library text: `(kind, line, token, replacement)`.
/// Kind 0 replaces the line's space-separated token with
/// `REPLACEMENTS[replacement]`, kind 1 deletes the line and kind 2
/// duplicates it; `line` and `token` wrap around the text's shape.
type Edit = (u8, usize, usize, usize);

fn arb_edits() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec(
        (0u8..3, any::<usize>(), any::<usize>(), 0..REPLACEMENTS.len()),
        1..=3,
    )
}

fn mutate(text: &str, edits: &[Edit]) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    for &(kind, line, token, replacement) in edits {
        if lines.is_empty() {
            break;
        }
        let l = line % lines.len();
        match kind {
            0 => {
                let mut tokens: Vec<&str> = lines[l].split(' ').collect();
                let t = token % tokens.len();
                tokens[t] = REPLACEMENTS[replacement];
                lines[l] = tokens.join(" ");
            }
            1 => {
                lines.remove(l);
            }
            _ => lines.insert(l, lines[l].clone()),
        }
    }
    lines.join("\n")
}

fn arb_mnemonic() -> impl Strategy<Value = String> {
    "[A-Z][A-Z0-9_]{0,7}".prop_map(|s| s.to_string())
}

fn arb_cell() -> impl Strategy<Value = Cell> {
    (arb_mnemonic(), 1u8..=4, 0.0f64..10.0, 0.0f64..10.0, 0.0f64..100.0, 0.0f64..50.0)
        .prop_map(|(m, fanin, a, d, s, e)| Cell::new(m, fanin, a, d, s, e))
}

proptest! {
    /// Any library we can build serializes to text that parses back to an
    /// identical library.
    #[test]
    fn roundtrip(cells in proptest::collection::vec(arb_cell(), 0..12), v in 0.1f64..5.0) {
        let mut lib = Library::new("P", v);
        for c in cells {
            // Skip duplicate mnemonics; Library rejects them by design.
            let _ = lib.add_cell(c);
        }
        let text = liberty::to_string(&lib);
        let back = liberty::parse(&text).expect("serializer output must parse");
        prop_assert_eq!(back, lib);
    }

    /// The parser never panics on arbitrary input — it either produces a
    /// library or a structured error.
    #[test]
    fn parser_total(text in "\\PC*") {
        let _ = liberty::parse(&text);
    }
}

proptest! {
    // Arbitrary text almost never forms a cell line, so the parser's
    // per-field checks are only reached from a valid library with a few
    // edits; about one such text in fifty carries an unphysical figure
    // that parses as a number.
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The parser never panics on a serialized library with one to
    /// three token or line edits.
    #[test]
    fn parser_total_on_mutated_libraries(edits in arb_edits()) {
        let text = mutate(&liberty::to_string(&egt_library()), &edits);
        let _ = liberty::parse(&text);
    }
}

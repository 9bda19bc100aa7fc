//! A tiny Liberty-like text format for printed cell libraries.
//!
//! Real PDKs ship as Liberty (`.lib`) files; this module implements a
//! minimal, line-oriented dialect sufficient for the EGT library so that
//! libraries can be inspected, tweaked and reloaded without recompiling:
//!
//! ```text
//! library EGT {
//!   voltage 1.0;
//!   cell NAND2 { fanin 2; area 0.33; delay 0.60; static 9.6; energy 2.2; }
//! }
//! ```
//!
//! # Examples
//!
//! ```
//! use egt_pdk::{egt_library, liberty};
//!
//! let text = liberty::to_string(&egt_library());
//! let back = liberty::parse(&text)?;
//! assert_eq!(back, egt_library());
//! # Ok::<(), egt_pdk::PdkError>(())
//! ```

use crate::{Cell, Library, PdkError};

/// Serializes a library to the Liberty-lite text format.
pub fn to_string(lib: &Library) -> String {
    let mut out = String::new();
    out.push_str(&format!("library {} {{\n", lib.name()));
    out.push_str(&format!("  voltage {};\n", lib.voltage_v()));
    for c in lib.iter() {
        out.push_str(&format!(
            "  cell {} {{ fanin {}; area {}; delay {}; static {}; energy {}; }}\n",
            c.mnemonic, c.fanin, c.area_mm2, c.delay_ms, c.static_uw, c.sw_energy_nj
        ));
    }
    out.push_str("}\n");
    out
}

/// Parses a library from the Liberty-lite text format.
///
/// # Errors
///
/// Returns [`PdkError::Parse`] for malformed input and
/// [`PdkError::DuplicateCell`] when two cells share a mnemonic.
pub fn parse(text: &str) -> Result<Library, PdkError> {
    let mut lines = text.lines().enumerate();

    let (header_line_no, header) = lines
        .by_ref()
        .map(|(i, l)| (i + 1, l.trim()))
        .find(|(_, l)| !l.is_empty() && !l.starts_with("//"))
        .ok_or_else(|| parse_err(1, "empty input"))?;
    let name = header
        .strip_prefix("library ")
        .and_then(|rest| rest.strip_suffix('{'))
        .map(str::trim)
        .filter(|n| !n.is_empty())
        .ok_or_else(|| parse_err(header_line_no, "expected `library <name> {`"))?;

    let mut voltage = None;
    let mut cells: Vec<Cell> = Vec::new();
    let mut closed = false;

    for (idx, raw) in lines {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        if closed {
            return Err(parse_err(line_no, "content after closing `}`"));
        }
        if line == "}" {
            closed = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("voltage ") {
            let v = rest
                .strip_suffix(';')
                .map(str::trim)
                .ok_or_else(|| parse_err(line_no, "expected `;` after voltage"))?;
            voltage = Some(
                v.parse::<f64>()
                    .map_err(|_| parse_err(line_no, &format!("invalid voltage `{v}`")))?,
            );
        } else if let Some(rest) = line.strip_prefix("cell ") {
            cells.push(parse_cell(line_no, rest)?);
        } else {
            return Err(parse_err(line_no, &format!("unexpected statement `{line}`")));
        }
    }

    if !closed {
        return Err(parse_err(text.lines().count(), "missing closing `}`"));
    }

    let mut lib = Library::new(name, voltage.ok_or_else(|| parse_err(1, "missing `voltage`"))?);
    for c in cells {
        lib.add_cell(c)?;
    }
    Ok(lib)
}

fn parse_cell(line_no: usize, rest: &str) -> Result<Cell, PdkError> {
    // `NAND2 { fanin 2; area 0.33; delay 0.60; static 9.6; energy 2.2; }`
    let (mnemonic, body) =
        rest.split_once('{').ok_or_else(|| parse_err(line_no, "expected `{` in cell statement"))?;
    let mnemonic = mnemonic.trim();
    if mnemonic.is_empty() {
        return Err(parse_err(line_no, "cell mnemonic is empty"));
    }
    let body = body
        .trim()
        .strip_suffix('}')
        .ok_or_else(|| parse_err(line_no, "expected `}` closing cell statement"))?;

    let mut fanin = None;
    let mut values = [None::<f64>; 4]; // area, delay, static, energy
    for field in body.split(';') {
        let field = field.trim();
        if field.is_empty() {
            continue;
        }
        let (key, val) = field
            .split_once(char::is_whitespace)
            .ok_or_else(|| parse_err(line_no, &format!("malformed field `{field}`")))?;
        let val = val.trim();
        let slot = match key {
            "fanin" => {
                fanin = Some(val.parse::<u8>().map_err(|_| {
                    parse_err(line_no, &format!("invalid fanin `{val}` for cell {mnemonic}"))
                })?);
                continue;
            }
            "area" => 0,
            "delay" => 1,
            "static" => 2,
            "energy" => 3,
            other => {
                return Err(parse_err(line_no, &format!("unknown cell field `{other}`")));
            }
        };
        let value = val.parse::<f64>().map_err(|_| {
            parse_err(line_no, &format!("invalid {key} value `{val}` for cell {mnemonic}"))
        })?;
        // `Cell::new` asserts what `Cell::is_physical` checks; an
        // out-of-range figure in the text is malformed input, not a bug.
        if !(value.is_finite() && value >= 0.0) {
            return Err(parse_err(
                line_no,
                &format!("{key} value `{val}` for cell {mnemonic} is negative or non-finite"),
            ));
        }
        values[slot] = Some(value);
    }

    let get = |slot: usize, name: &str| {
        values[slot].ok_or_else(|| parse_err(line_no, &format!("cell {mnemonic} misses `{name}`")))
    };
    Ok(Cell::new(
        mnemonic,
        fanin.ok_or_else(|| parse_err(line_no, &format!("cell {mnemonic} misses `fanin`")))?,
        get(0, "area")?,
        get(1, "delay")?,
        get(2, "static")?,
        get(3, "energy")?,
    ))
}

fn parse_err(line: usize, message: &str) -> PdkError {
    PdkError::Parse { line, message: message.to_owned() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::egt_library;

    #[test]
    fn roundtrip_builtin_library() {
        let lib = egt_library();
        let text = to_string(&lib);
        let back = parse(&text).unwrap();
        assert_eq!(back, lib);
    }

    #[test]
    fn parse_tolerates_comments_and_blank_lines() {
        let text = "\n// a printed library\nlibrary X {\n  voltage 0.8;\n\n  // inverter\n  cell INV { fanin 1; area 0.1; delay 0.2; static 3.0; energy 0.5; }\n}\n";
        let lib = parse(text).unwrap();
        assert_eq!(lib.name(), "X");
        assert_eq!(lib.len(), 1);
        assert!((lib.voltage_v() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn missing_voltage_is_an_error() {
        let text =
            "library X {\n cell INV { fanin 1; area 0.1; delay 0.2; static 3.0; energy 0.5; }\n}\n";
        assert!(matches!(parse(text), Err(PdkError::Parse { .. })));
    }

    #[test]
    fn missing_field_is_an_error() {
        let text = "library X {\n voltage 1.0;\n cell INV { fanin 1; area 0.1; delay 0.2; static 3.0; }\n}\n";
        let err = parse(text).unwrap_err();
        assert!(err.to_string().contains("energy"), "{err}");
    }

    #[test]
    fn duplicate_cells_rejected() {
        let text = "library X {\n voltage 1.0;\n cell INV { fanin 1; area 0.1; delay 0.2; static 3.0; energy 0.5; }\n cell INV { fanin 1; area 0.1; delay 0.2; static 3.0; energy 0.5; }\n}\n";
        assert_eq!(parse(text).unwrap_err(), PdkError::DuplicateCell("INV".into()));
    }

    #[test]
    fn garbage_statement_reports_line() {
        let text = "library X {\n voltage 1.0;\n frobnicate;\n}\n";
        match parse(text).unwrap_err() {
            PdkError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unphysical_figures_are_parse_errors() {
        let fields = ["area 0.1", "delay 0.2", "static 3.0", "energy 0.5"];
        for (i, field) in fields.iter().enumerate() {
            let key = field.split_once(' ').expect("key and value").0;
            for bad in ["-5", "nan", "inf", "1e400"] {
                let mut body = fields;
                let swapped = format!("{key} {bad}");
                body[i] = &swapped;
                let text = format!(
                    "library X {{\n voltage 1.0;\n cell INV {{ fanin 1; {}; }}\n \
                     cell BUF {{ fanin 1; {}; }}\n}}\n",
                    fields.join("; "),
                    body.join("; ")
                );
                match parse(&text).unwrap_err() {
                    PdkError::Parse { line, message } => {
                        assert_eq!(line, 4, "{key} {bad}");
                        assert!(message.contains(key), "{message}");
                        assert!(message.contains("BUF"), "{message}");
                    }
                    other => panic!("unexpected error {other:?}"),
                }
            }
        }
    }

    #[test]
    fn missing_close_brace_detected() {
        let text = "library X {\n voltage 1.0;\n";
        assert!(matches!(parse(text), Err(PdkError::Parse { .. })));
    }
}

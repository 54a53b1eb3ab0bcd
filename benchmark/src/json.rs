//! JSON output helpers. Reading goes through `mv_prof::json::parse`.

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust prints; JSON has no NaN or
/// infinity, so a non-finite value (a bug upstream) is written as 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_parses_back() {
        let text = format!(
            "[{},{},{}]",
            string("a \"quoted\" \\ line\n\u{1}"),
            num(1.25e-9),
            num(f64::NAN)
        );
        let v = mv_prof::json::parse(&text).expect("valid JSON");
        let arr = v.as_arr().expect("array");
        assert_eq!(arr[0].as_str(), Some("a \"quoted\" \\ line\n\u{1}"));
        assert_eq!(arr[1].as_f64(), Some(1.25e-9));
        assert_eq!(arr[2].as_f64(), Some(0.0));
    }
}

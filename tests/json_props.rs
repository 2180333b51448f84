//! `json::parse` reads files users hand to `pic diff` and
//! `pic regress --baseline`: whatever the bytes, it must answer `Ok` or
//! `Err` — never unwind, overflow the stack or loop. Whatever parses then
//! goes through both views of the comparison, `json::diff` and
//! `diff::diff_docs`, which must return without panicking and whose
//! attribution document must parse back.

use pic_bench::diff;
use pic_bench::json::{self, Json};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::OnceLock;

/// The characters JSON gives meaning to, so random text keeps reaching
/// the string, escape, number, keyword and container paths.
const SYNTAX: &[u8] = b"{}[]\":,\\/ue0123456789.-+Etrfalsn \n";

/// Text that is half JSON syntax and half arbitrary bytes (made valid
/// UTF-8 lossily, which also plants multi-byte replacement characters).
fn byteish_text(picks: Vec<(bool, usize, u8)>) -> String {
    let bytes: Vec<u8> = picks
        .into_iter()
        .map(|(syntax, i, raw)| if syntax { SYNTAX[i] } else { raw })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The committed baseline: a real `bench_json` document (ASCII, 689 KB).
const BENCH: &str = include_str!("../BENCH_pic.json");

fn bench() -> &'static Json {
    static DOC: OnceLock<Json> = OnceLock::new();
    DOC.get_or_init(|| json::parse(BENCH).expect("the baseline parses"))
}

/// The byte ranges of the baseline's number literals.
fn number_literals() -> &'static [Range<usize>] {
    static SPANS: OnceLock<Vec<Range<usize>>> = OnceLock::new();
    SPANS.get_or_init(|| {
        let b = BENCH.as_bytes();
        let (mut spans, mut i, mut in_string) = (Vec::new(), 0, false);
        while i < b.len() {
            match b[i] {
                b'\\' if in_string => i += 1,
                b'"' => in_string = !in_string,
                b'-' | b'0'..=b'9' if !in_string => {
                    let start = i;
                    while i < b.len()
                        && matches!(b[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                    {
                        i += 1;
                    }
                    spans.push(start..i);
                    continue;
                }
                _ => {}
            }
            i += 1;
        }
        spans
    })
}

/// Both views of the comparison, both ways round.
fn compare_both(a: &Json, b: &Json) -> Result<(), TestCaseError> {
    for (old, new) in [(a, b), (b, a)] {
        let _ = json::diff(old, new, json::EPSILON);
        if let Ok(report) = diff::diff_docs(old, new, json::EPSILON) {
            let _ = report.render(0);
            let doc = report.to_json();
            prop_assert!(json::parse(&doc).is_ok());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_never_panics(
        picks in proptest::collection::vec(
            (any::<bool>(), 0..SYNTAX.len(), any::<u8>()),
            0..200,
        ),
    ) {
        if let Ok(doc) = json::parse(&byteish_text(picks)) {
            compare_both(&doc, &doc)?;
            compare_both(&doc, bench())?;
        }
    }

    #[test]
    fn mutated_slices_of_a_real_document_never_panic(
        start in 0..BENCH.len(),
        len in 0usize..3000,
        edits in proptest::collection::vec((0usize..3000, any::<bool>(), any::<u8>()), 0..8),
    ) {
        let end = (start + len).min(BENCH.len());
        let mut bytes = BENCH.as_bytes()[start..end].to_vec();
        for (at, replace, byte) in edits {
            let at = at.min(bytes.len());
            if replace && at < bytes.len() {
                bytes[at] = byte;
            } else {
                bytes.insert(at, byte);
            }
        }
        if let Ok(doc) = json::parse(&String::from_utf8_lossy(&bytes)) {
            compare_both(&doc, bench())?;
        }
    }
}

proptest! {
    // Each case parses and compares the whole 689 KB document.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Digits rewritten inside number literals move values; lowercase
    /// letters rewritten anywhere rename keys, apps and labels (and now
    /// and then break a keyword).
    #[test]
    fn mutated_copies_of_a_real_document_compare_without_panicking(
        edits in proptest::collection::vec((any::<usize>(), any::<bool>(), 0u8..26), 1..8),
    ) {
        let mut bytes = BENCH.as_bytes().to_vec();
        let spans = number_literals();
        for (at, in_number, c) in edits {
            let i = if in_number {
                let span = &spans[at % spans.len()];
                span.start + at % span.len()
            } else {
                at % bytes.len()
            };
            match bytes[i] {
                b'0'..=b'9' if in_number => bytes[i] = b'0' + c % 10,
                b'a'..=b'z' if !in_number => bytes[i] = b'a' + c,
                _ => {}
            }
        }
        if let Ok(doc) = json::parse(&String::from_utf8_lossy(&bytes)) {
            compare_both(bench(), &doc)?;
        }
    }

    /// Every `stride`-th number literal from `offset` on becomes `±MAX`
    /// (the largest finite `f64`), so sums and differences inside the
    /// comparison overflow to infinity: it must still rank, render and
    /// write its attribution. Spelled `±1e999`, the same literals are
    /// refused by the parser at the first one's byte offset.
    #[test]
    fn numbers_rewritten_to_infinity_compare_without_panicking(
        stride in 1usize..8,
        offset in 0usize..8,
        negative_every in 1usize..4,
    ) {
        let rewrite = |huge: &str| {
            let mut text = String::with_capacity(BENCH.len());
            let mut copied = 0;
            let spans = number_literals().iter().skip(offset).step_by(stride);
            for (n, span) in spans.enumerate() {
                text.push_str(&BENCH[copied..span.start]);
                if n % negative_every == 0 {
                    text.push('-');
                }
                text.push_str(huge);
                copied = span.end;
            }
            text.push_str(&BENCH[copied..]);
            text
        };
        let doc = json::parse(&rewrite("1.7976931348623157e308")).map_err(TestCaseError::fail)?;
        compare_both(bench(), &doc)?;
        compare_both(&doc, &doc)?;
        let first = number_literals()[offset].start;
        let err = json::parse(&rewrite("1e999")).unwrap_err();
        prop_assert!(err.ends_with(&format!("overflows at byte {first}")), "{}", err);
    }
}

#[test]
fn the_unmutated_document_parses() {
    assert!(json::parse(BENCH).is_ok());
}

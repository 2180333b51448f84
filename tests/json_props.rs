//! `json::parse` reads files users hand to `pic diff` and
//! `pic regress --baseline`: whatever the bytes, it must answer `Ok` or
//! `Err` — never unwind, overflow the stack or loop.

use pic_bench::json;
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_never_panics(
        picks in proptest::collection::vec(
            (any::<bool>(), 0..SYNTAX.len(), any::<u8>()),
            0..200,
        ),
    ) {
        let _ = json::parse(&byteish_text(picks));
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
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn the_unmutated_document_parses() {
    assert!(json::parse(BENCH).is_ok());
}

//! ASCII table rendering for experiment output: [`Table`] auto-sizes
//! columns to content (the `pic report` / `pic diff` tables). Every CSV
//! document is built by [`csv_doc`] from rows of [`Column`]s, and its
//! escaping is unified in [`csv_row`].

use pic_simnet::report::Column;
use std::fmt::Write as _;

/// A simple fixed-layout table: headers plus rows, auto-sized columns.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row/header arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with a header separator, columns padded to content width.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{:<w$}", cells[i], w = widths[i]);
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Quote one CSV field per RFC 4180: fields containing a comma, a double
/// quote or a line break are wrapped in double quotes with embedded
/// quotes doubled; everything else passes through unchanged (so the
/// committed artifacts stay byte-identical for today's plain fields).
pub fn csv_field(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Join fields into one CSV record (no trailing newline), each routed
/// through [`csv_field`], so the escaping policy lives in exactly one
/// place.
pub fn csv_row<S: AsRef<str>>(fields: impl IntoIterator<Item = S>) -> String {
    fields
        .into_iter()
        .map(|f| csv_field(f.as_ref()))
        .collect::<Vec<_>>()
        .join(",")
}

/// A whole CSV document: the first row's keys as the header, then one
/// [`csv_row`] of values per row, so a row type's [`Column`] list is its
/// CSV schema. No rows make an empty document. Panics, naming the row's
/// index and first differing key, when a row's keys differ from the
/// first row's: a ragged CSV is a bug.
pub fn csv_doc(rows: impl IntoIterator<Item = Vec<Column>>) -> String {
    let mut rows = rows.into_iter().peekable();
    let Some(first) = rows.peek() else {
        return String::new();
    };
    let header: Vec<String> = first.iter().map(|c| c.key().to_string()).collect();
    let mut doc = csv_row(&header) + "\n";
    for (i, row) in rows.enumerate() {
        let differs = |&j: &usize| header.get(j).map(String::as_str) != row.get(j).map(Column::key);
        if let Some(j) = (0..header.len().max(row.len())).find(differs) {
            panic!(
                "ragged CSV: row {i} has key {:?} where the header has {:?}",
                row.get(j).map(Column::key),
                header.get(j)
            );
        }
        doc.push_str(&csv_row(row.iter().map(Column::value)));
        doc.push('\n');
    }
    doc
}

/// Format simulated seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 3600.0 {
        format!("{:.2} h", s / 3600.0)
    } else if s >= 60.0 {
        format!("{:.1} min", s / 60.0)
    } else if s >= 1.0 {
        format!("{s:.1} s")
    } else {
        format!("{:.0} ms", s * 1000.0)
    }
}

/// Format a speedup factor.
pub fn fmt_x(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The round-trip reference: parse a CSV document written by
    /// [`csv_row`] back into records, honouring RFC 4180 quoting
    /// (embedded commas, doubled quotes, and line breaks inside quoted
    /// fields). A lone trailing newline does not produce an empty
    /// record. Errors on an unterminated quoted field.
    fn csv_parse(doc: &str) -> Result<Vec<Vec<String>>, String> {
        let mut records = Vec::new();
        let mut record: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut in_quotes = false;
        let mut saw_any = false;
        let mut chars = doc.chars().peekable();
        while let Some(c) = chars.next() {
            saw_any = true;
            if in_quotes {
                match c {
                    '"' if chars.peek() == Some(&'"') => {
                        chars.next();
                        field.push('"');
                    }
                    '"' => in_quotes = false,
                    _ => field.push(c),
                }
            } else {
                match c {
                    '"' if field.is_empty() => in_quotes = true,
                    ',' => record.push(std::mem::take(&mut field)),
                    '\r' if chars.peek() == Some(&'\n') => {}
                    '\n' => {
                        record.push(std::mem::take(&mut field));
                        records.push(std::mem::take(&mut record));
                        saw_any = false;
                    }
                    _ => field.push(c),
                }
            }
        }
        if in_quotes {
            return Err("unterminated quoted CSV field".to_string());
        }
        if saw_any {
            record.push(field);
            records.push(record);
        }
        Ok(records)
    }

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(["app", "time"]);
        t.row(["kmeans", "12.0 s"]).row(["pr", "1.5 s"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("app"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("kmeans"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        Table::new(["a", "b"]).row(["only one"]);
    }

    /// Pinned byte-for-byte: every `pic report` / `pic diff` table rides
    /// this path, so no change may move a single character.
    #[test]
    fn render_is_pinned_byte_for_byte() {
        let mut t = Table::new(["#", "segment", "old (s)", "new (s)", "delta (s)"]);
        t.row([
            "1",
            "kmeans/pic/shuffle",
            "12.500000",
            "13.250000",
            "+0.750000",
        ]);
        t.row(["2", "pr/ic/merge", "1.000000", "1.100000", "+0.100000"]);
        assert_eq!(
            t.render(),
            "#  segment             old (s)    new (s)    delta (s)\n\
             ------------------------------------------------------\n\
             1  kmeans/pic/shuffle  12.500000  13.250000  +0.750000\n\
             2  pr/ic/merge         1.000000   1.100000   +0.100000\n"
        );
    }

    #[test]
    fn csv_round_trips_quoting_and_commas() {
        // Plain fields pass through untouched (artifact stability).
        assert_eq!(csv_field("kmeans"), "kmeans");
        assert_eq!(csv_row(["a", "1", "2.5"]), "a,1,2.5");
        // Commas, quotes and newlines are quoted per RFC 4180.
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        let rows = [
            vec!["app,with,commas".to_string(), "plain".to_string()],
            vec!["quote\"inside".to_string(), "line\nbreak".to_string()],
        ];
        let doc: String = rows
            .iter()
            .map(|r| csv_row(r.iter().map(String::as_str)) + "\n")
            .collect();
        let parsed = csv_parse(&doc).unwrap();
        assert_eq!(parsed, rows.to_vec());
        // Trailing newline does not fabricate an empty record; an
        // unterminated quote is an error, not a silent truncation.
        assert_eq!(csv_parse("a,b\n").unwrap(), vec![vec!["a", "b"]]);
        assert_eq!(csv_parse("a,b").unwrap(), vec![vec!["a", "b"]]);
        assert!(csv_parse("\"open").is_err());
    }

    fn toy_row(a: u32, b: &str) -> Vec<Column> {
        vec![Column::num("a", a), Column::text("b", b)]
    }

    #[test]
    fn csv_doc_header_is_the_rows_keys() {
        let doc = csv_doc([toy_row(1, "x"), toy_row(2, "y,z")]);
        assert_eq!(doc, "a,b\n1,x\n2,\"y,z\"\n");
    }

    #[test]
    #[should_panic(expected = "row 2 has key Some(\"c\") where the header has Some(\"b\")")]
    fn csv_doc_refuses_a_ragged_row() {
        let ragged = vec![Column::num("a", 3), Column::text("c", "w")];
        csv_doc([toy_row(1, "x"), toy_row(2, "y"), ragged]);
    }

    #[test]
    fn csv_doc_of_no_rows_is_empty() {
        assert_eq!(csv_doc(Vec::new()), "");
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_secs(0.5), "500 ms");
        assert_eq!(fmt_secs(12.34), "12.3 s");
        assert_eq!(fmt_secs(90.0), "1.5 min");
        assert_eq!(fmt_secs(7200.0), "2.00 h");
        assert_eq!(fmt_x(2.5), "2.50x");
    }
}

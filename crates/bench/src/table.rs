//! ASCII table rendering for experiment output.
//!
//! Two renderers share the padding helpers here: [`Table`] auto-sizes
//! columns to content (the `pic report` / `pic diff` tables) and
//! [`RowLayout`] keeps caller-fixed widths (the `pic explain`
//! side-by-side view, whose column grid must not move when values
//! change between runs). CSV escaping is unified in [`csv_row`].

use pic_simnet::traffic::human_bytes;

/// Column alignment for [`pad`] and [`RowLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Pad on the right (labels).
    Left,
    /// Pad on the left (numbers).
    Right,
}

/// Pad `text` to `width` with `align`; content longer than `width`
/// passes through unpadded (same semantics as `format!` width specs).
pub fn pad(text: &str, width: usize, align: Align) -> String {
    match align {
        Align::Left => format!("{text:<width$}"),
        Align::Right => format!("{text:>width$}"),
    }
}

/// A reusable fixed-width row layout: a line prefix plus per-column
/// width, alignment and leading gap. Header and body rows render
/// through the same layout, so the grid is declared once instead of
/// repeating `format!` templates at every call site.
#[derive(Debug, Clone, Default)]
pub struct RowLayout {
    prefix: String,
    cols: Vec<(usize, Align, usize)>,
}

impl RowLayout {
    /// A layout whose every row starts with `prefix`.
    pub fn new(prefix: &str) -> Self {
        RowLayout {
            prefix: prefix.to_string(),
            cols: Vec::new(),
        }
    }

    /// Append a column separated from the previous one by one space.
    pub fn col(self, width: usize, align: Align) -> Self {
        let gap = usize::from(!self.cols.is_empty());
        self.col_gap(gap, width, align)
    }

    /// Append a column with an explicit leading gap of `gap` spaces.
    pub fn col_gap(mut self, gap: usize, width: usize, align: Align) -> Self {
        self.cols.push((width, align, gap));
        self
    }

    /// Render one row (no trailing newline; cell count must match the
    /// column count).
    pub fn row<S: AsRef<str>>(&self, cells: impl IntoIterator<Item = S>) -> String {
        let cells: Vec<String> = cells.into_iter().map(|c| c.as_ref().to_string()).collect();
        assert_eq!(cells.len(), self.cols.len(), "row/layout arity mismatch");
        let mut line = self.prefix.clone();
        for (cell, &(width, align, gap)) in cells.iter().zip(&self.cols) {
            line.push_str(&" ".repeat(gap));
            line.push_str(&pad(cell, width, align));
        }
        line
    }
}

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
                line.push_str(&pad(&cells[i], widths[i], Align::Left));
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

/// A whole CSV document: the header line, then one [`csv_row`] line per
/// record. Every CSV artifact this crate writes is built here.
pub fn csv_doc<R, S>(header: &str, records: impl IntoIterator<Item = R>) -> String
where
    R: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut doc = format!("{header}\n");
    for record in records {
        doc.push_str(&csv_row(record));
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

/// Format a byte count (paper-style KB/MB/GB).
pub fn fmt_bytes(b: u64) -> String {
    human_bytes(b)
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

    /// Pinned byte-for-byte: routing `Table::render` through the shared
    /// [`pad`] helper must not move a single character of an existing
    /// table (every `pic report` / `pic diff` table rides this path).
    #[test]
    fn render_is_byte_identical_to_the_pre_align_output() {
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
    fn row_layout_matches_format_width_specs() {
        // The layout reproduces `format!` padding exactly, including
        // overflow pass-through and custom gaps.
        assert_eq!(pad("ab", 4, Align::Left), format!("{:<4}", "ab"));
        assert_eq!(pad("ab", 4, Align::Right), format!("{:>4}", "ab"));
        assert_eq!(pad("overflowing", 4, Align::Left), "overflowing");
        let layout = RowLayout::new("  ")
            .col(6, Align::Left)
            .col(8, Align::Right)
            .col_gap(2, 5, Align::Left);
        assert_eq!(
            layout.row(["name", "3.14", "ok"]),
            format!("  {:<6} {:>8}  {:<5}", "name", "3.14", "ok")
        );
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_layout_arity_checked() {
        RowLayout::new("").col(4, Align::Left).row(["a", "b"]);
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

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_secs(0.5), "500 ms");
        assert_eq!(fmt_secs(12.34), "12.3 s");
        assert_eq!(fmt_secs(90.0), "1.5 min");
        assert_eq!(fmt_secs(7200.0), "2.00 h");
        assert_eq!(fmt_x(2.5), "2.50x");
    }
}

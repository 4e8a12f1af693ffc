//! The plain-text view of a [`BenchReport`]: `nasd-bench` prints every
//! experiment through [`render_report`], so the table can only show
//! what the JSON carries.

use nasd::obs::{BenchReport, Json};

/// One right-aligned table line.
fn line<'a>(cells: impl Iterator<Item = &'a str>, widths: &[usize]) -> String {
    let padded: Vec<String> = cells
        .zip(widths)
        .map(|(cell, width)| format!("{cell:>width$}"))
        .collect();
    padded.join("  ") + "\n"
}

/// Render rows as a fixed-width table with a header and a rule.
fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let mut out = line(headers.iter().copied(), &widths);
    out.push_str(&"-".repeat(out.len() - 1));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row.iter().map(String::as_str), &widths));
    }
    out
}

/// The one number format: integers exactly, anything else to four
/// significant digits.
fn number(v: f64) -> String {
    if v.fract() == 0.0 {
        return format!("{v:.0}");
    }
    let digits = (3 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.digits$}")
}

fn cell(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Num(n) => number(*n),
        other => other.to_json_string(),
    }
}

/// Render a whole report: its name and config, one table per run of
/// rows sharing a key list (columns are the row keys, in report order),
/// then the derived values.
///
/// # Example
///
/// ```
/// use nasd::obs::{BenchReport, Json};
/// let mut r = BenchReport::new("demo").with_derived("max_mb_s", 55.25);
/// r.push_row(vec![("disks", Json::num_u64(1)), ("overhead_pct", Json::Num(383.04))]);
/// let text = nasd_bench::table::render_report(&r);
/// assert!(text.contains("disks  overhead_pct"));
/// assert!(text.contains("    1         383.0"));
/// assert!(text.contains("max_mb_s = 55.25"));
/// ```
#[must_use]
pub fn render_report(report: &BenchReport) -> String {
    let mut out = format!("{}\n", report.bench);
    for (key, value) in &report.config {
        out.push_str(&format!("  {key} = {}\n", cell(value)));
    }
    let same_keys = |a: &Vec<(String, Json)>, b: &Vec<(String, Json)>| {
        a.iter().map(|(k, _)| k).eq(b.iter().map(|(k, _)| k))
    };
    for group in report.rows.chunk_by(same_keys) {
        let headers: Vec<&str> = group[0].iter().map(|(k, _)| k.as_str()).collect();
        let rows: Vec<Vec<String>> = group
            .iter()
            .map(|row| row.iter().map(|(_, v)| cell(v)).collect())
            .collect();
        out.push('\n');
        out.push_str(&render(&headers, &rows));
    }
    if !report.derived.is_empty() {
        out.push('\n');
    }
    for (key, value) in &report.derived {
        out.push_str(&format!("{key} = {}\n", number(*value)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let t = render(
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
        // All data lines share the same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn one_number_format() {
        assert_eq!(number(0.0), "0");
        assert_eq!(number(65_536.0), "65536");
        assert_eq!(number(-3.0), "-3");
        assert_eq!(number(55.2149), "55.21");
        assert_eq!(number(383.04), "383.0");
        assert_eq!(number(123_456.7), "123457");
        assert_eq!(number(0.003_126), "0.003126");
        assert_eq!(number(-0.25), "-0.2500");
    }

    #[test]
    fn key_list_change_starts_a_new_table() {
        let mut r = BenchReport::new("x").with_config("unit", Json::str("MB/s"));
        r.push_row(vec![
            ("sweep", Json::str("rpc")),
            ("per_byte", Json::Num(2.5)),
        ]);
        r.push_row(vec![
            ("sweep", Json::str("rpc")),
            ("per_byte", Json::Num(3.0)),
        ]);
        r.push_row(vec![("sweep", Json::str("cpu")), ("mhz", Json::Num(200.0))]);
        let text = render_report(&r);
        assert!(text.starts_with("x\n  unit = MB/s\n\n"), "{text}");
        assert_eq!(text.matches("sweep").count(), 2, "{text}");
        let rules = text.lines().filter(|l| l.starts_with('-')).count();
        assert_eq!(rules, 2, "{text}");
        assert!(text.contains("  rpc     2.500\n"), "{text}");
    }
}

//! The versioned, machine-readable benchmark report.
//!
//! Every `nasd-bench` experiment produces a [`BenchReport`], written
//! under `--json <path>`, so reproduction results can be diffed, plotted
//! and regression-checked without scraping ASCII tables. The schema is
//! versioned (`nasd-bench-report/v1`); [`BenchReport::from_json`]
//! validates the version and shape so a checked-in baseline that drifts
//! from the code fails loudly rather than silently misparsing.

use std::path::Path;

use crate::json::Json;

/// Schema identifier for a single report.
pub const BENCH_REPORT_SCHEMA: &str = "nasd-bench-report/v1";
/// Schema identifier for a suite (the output of `nasd-bench all`).
pub const BENCH_SUITE_SCHEMA: &str = "nasd-bench-suite/v1";

/// A report failed schema validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// What was wrong.
    pub message: String,
}

impl SchemaError {
    fn new(message: impl Into<String>) -> Self {
        SchemaError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bench report schema error: {}", self.message)
    }
}

impl std::error::Error for SchemaError {}

/// One benchmark's results in machine-readable form.
///
/// `rows` mirrors the bench's printed table: one entry per table row,
/// each an ordered list of `(column, value)` cells. `config` records the
/// knobs the run was parameterized with, `derived` holds scalar
/// summaries (a knee point, an aggregate bandwidth), and `metrics`
/// optionally embeds a [`Registry`](crate::Registry) snapshot taken
/// during the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    /// Benchmark name, e.g. `"fig6"` or `"table1"`.
    pub bench: String,
    /// Run parameters, in insertion order.
    pub config: Vec<(String, Json)>,
    /// Table rows; each row is an ordered list of `(column, value)`.
    pub rows: Vec<Vec<(String, Json)>>,
    /// Scalar summary values.
    pub derived: Vec<(String, f64)>,
    /// Optional embedded metrics snapshot (`MetricsSnapshot::to_json`).
    pub metrics: Option<Json>,
}

impl BenchReport {
    /// An empty report for benchmark `bench`.
    #[must_use]
    pub fn new(bench: impl Into<String>) -> Self {
        BenchReport {
            bench: bench.into(),
            ..BenchReport::default()
        }
    }

    /// Record a run parameter (fluent).
    #[must_use]
    pub fn with_config(mut self, key: impl Into<String>, value: Json) -> Self {
        self.config.push((key.into(), value));
        self
    }

    /// Record a scalar summary (fluent).
    #[must_use]
    pub fn with_derived(mut self, key: impl Into<String>, value: f64) -> Self {
        self.derived.push((key.into(), value));
        self
    }

    /// Embed a metrics snapshot (fluent).
    #[must_use]
    pub fn with_metrics(mut self, metrics: Json) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Append a table row given `(column, value)` cells.
    pub fn push_row(&mut self, cells: Vec<(&str, Json)>) {
        self.rows
            .push(cells.into_iter().map(|(k, v)| (k.to_owned(), v)).collect());
    }

    /// As a JSON object under [`BENCH_REPORT_SCHEMA`].
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("schema".to_owned(), Json::str(BENCH_REPORT_SCHEMA)),
            ("bench".to_owned(), Json::str(self.bench.clone())),
            ("config".to_owned(), Json::Obj(self.config.clone())),
            (
                "rows".to_owned(),
                Json::Arr(self.rows.iter().map(|r| Json::Obj(r.clone())).collect()),
            ),
            (
                "derived".to_owned(),
                Json::Obj(
                    self.derived
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ];
        if let Some(metrics) = &self.metrics {
            obj.push(("metrics".to_owned(), metrics.clone()));
        }
        Json::Obj(obj)
    }

    /// Serialize compactly.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().to_json_string()
    }

    /// Parse and validate a report object.
    ///
    /// # Errors
    ///
    /// [`SchemaError`] when the schema tag, `bench` name or row shape is
    /// missing or malformed.
    pub fn from_json(json: &Json) -> Result<BenchReport, SchemaError> {
        let schema = json
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| SchemaError::new("missing `schema` tag"))?;
        if schema != BENCH_REPORT_SCHEMA {
            return Err(SchemaError::new(format!(
                "schema `{schema}` is not `{BENCH_REPORT_SCHEMA}`"
            )));
        }
        let bench = json
            .get("bench")
            .and_then(Json::as_str)
            .ok_or_else(|| SchemaError::new("missing `bench` name"))?
            .to_owned();
        let config = match json.get("config") {
            None => Vec::new(),
            Some(c) => c
                .as_obj()
                .ok_or_else(|| SchemaError::new("`config` is not an object"))?
                .to_vec(),
        };
        let rows_json = json
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| SchemaError::new("missing `rows` array"))?;
        let mut rows = Vec::with_capacity(rows_json.len());
        for (i, row) in rows_json.iter().enumerate() {
            rows.push(
                row.as_obj()
                    .ok_or_else(|| SchemaError::new(format!("row {i} is not an object")))?
                    .to_vec(),
            );
        }
        let mut derived = Vec::new();
        if let Some(d) = json.get("derived") {
            for (k, v) in d
                .as_obj()
                .ok_or_else(|| SchemaError::new("`derived` is not an object"))?
            {
                let n = v
                    .as_f64()
                    .ok_or_else(|| SchemaError::new(format!("derived `{k}` is not a number")))?;
                derived.push((k.clone(), n));
            }
        }
        Ok(BenchReport {
            bench,
            config,
            rows,
            derived,
            metrics: json.get("metrics").cloned(),
        })
    }

    /// Parse and validate a report from its textual form.
    ///
    /// # Errors
    ///
    /// [`SchemaError`] on malformed JSON or schema violations.
    pub fn from_json_str(text: &str) -> Result<BenchReport, SchemaError> {
        let json = Json::parse(text).map_err(|e| SchemaError::new(e.to_string()))?;
        BenchReport::from_json(&json)
    }

    /// Write the report to `path` as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty_string())
    }

    /// Bundle several reports into a suite object under
    /// [`BENCH_SUITE_SCHEMA`] (what `nasd-bench all` emits).
    #[must_use]
    pub fn suite_to_json(reports: &[BenchReport]) -> Json {
        Json::Obj(vec![
            ("schema".to_owned(), Json::str(BENCH_SUITE_SCHEMA)),
            (
                "reports".to_owned(),
                Json::Arr(reports.iter().map(BenchReport::to_json).collect()),
            ),
        ])
    }

    /// Parse and validate a suite object back into its reports.
    ///
    /// # Errors
    ///
    /// [`SchemaError`] when the suite tag is wrong or any member report
    /// is malformed.
    pub fn suite_from_json(json: &Json) -> Result<Vec<BenchReport>, SchemaError> {
        let schema = json
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| SchemaError::new("missing suite `schema` tag"))?;
        if schema != BENCH_SUITE_SCHEMA {
            return Err(SchemaError::new(format!(
                "schema `{schema}` is not `{BENCH_SUITE_SCHEMA}`"
            )));
        }
        json.get("reports")
            .and_then(Json::as_arr)
            .ok_or_else(|| SchemaError::new("missing `reports` array"))?
            .iter()
            .map(BenchReport::from_json)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut report = BenchReport::new("fig6")
            .with_config("block_size", Json::num_u64(8192))
            .with_config("variant", Json::str("reads"))
            .with_derived("peak_mb_s", 6.2);
        report.push_row(vec![
            ("size", Json::num_u64(512)),
            ("raw_read", Json::Num(1.75)),
        ]);
        report.push_row(vec![
            ("size", Json::num_u64(65536)),
            ("raw_read", Json::Num(5.0)),
        ]);
        report
    }

    #[test]
    fn report_round_trips() {
        let report = sample();
        let back = BenchReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(back, report);
        // Pretty form parses to the same report too.
        let pretty = report.to_json().to_pretty_string();
        assert_eq!(BenchReport::from_json_str(&pretty).unwrap(), report);
    }

    #[test]
    fn report_with_metrics_round_trips() {
        let report = sample().with_metrics(Json::parse(r#"{"counters":{"ops":9}}"#).unwrap());
        let back = BenchReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(back, report);
        assert_eq!(
            back.metrics
                .as_ref()
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get("ops"))
                .and_then(Json::as_u64),
            Some(9)
        );
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let err = BenchReport::from_json_str(
            r#"{"schema":"nasd-bench-report/v0","bench":"x","rows":[]}"#,
        )
        .unwrap_err();
        assert!(err.message.contains("v0"), "{err}");
        assert!(BenchReport::from_json_str(r#"{"bench":"x","rows":[]}"#).is_err());
        assert!(BenchReport::from_json_str("{not json").is_err());
    }

    #[test]
    fn malformed_shapes_are_rejected() {
        let base = format!(r#"{{"schema":"{BENCH_REPORT_SCHEMA}","bench":"x""#);
        for tail in [
            r#","rows":[1]}"#,
            r#","rows":[],"config":3}"#,
            r#","rows":[],"derived":{"k":"not a number"}}"#,
            r#"}"#, // no rows at all
        ] {
            let text = format!("{base}{tail}");
            assert!(BenchReport::from_json_str(&text).is_err(), "{text}");
        }
    }

    #[test]
    fn suite_round_trips() {
        let reports = vec![sample(), BenchReport::new("table1")];
        let suite = BenchReport::suite_to_json(&reports);
        let back = BenchReport::suite_from_json(&suite).unwrap();
        assert_eq!(back, reports);
        assert!(BenchReport::suite_from_json(&sample().to_json()).is_err());
    }

    #[test]
    fn write_to_emits_valid_file() {
        let path = std::env::temp_dir().join("nasd_obs_report_test.json");
        sample().write_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(BenchReport::from_json_str(&text).unwrap(), sample());
        let _ = std::fs::remove_file(&path);
    }
}

//! CSV import.
//!
//! Real training databases arrive as delimited text; this module parses
//! them against a [`Schema`], either fully into memory or streamed straight
//! into a [`FileDataset`]. The parser handles RFC-4180-style quoting
//! (quoted fields, doubled quotes, delimiters inside quotes) on a single
//! line; values map to fields by schema position, with the class label as
//! the final column (or any column via [`CsvOptions::label_column`]).
//!
//! Categorical columns and the label accept either numeric codes or
//! arbitrary strings — strings are interned into per-column
//! [`CategoryDictionary`]s (first-seen order, capped at the schema's
//! cardinality), which the import returns so predictions can be mapped
//! back.

use crate::dataset::{FileDataset, FileDatasetWriter, MemoryDataset};
use crate::record::{Field, Record};
use crate::schema::{AttrType, Schema};
use crate::{DataError, Result};
use std::collections::HashMap;
use std::io::BufRead;
use std::path::Path;
use std::sync::Arc;

/// Options for CSV import.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Skip the first line.
    pub has_header: bool,
    /// Field delimiter (default `,`).
    pub delimiter: char,
    /// Which column holds the class label. `None` = the last column.
    pub label_column: Option<usize>,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            has_header: true,
            delimiter: ',',
            label_column: None,
        }
    }
}

/// String-to-code interning for one categorical column (or the label).
#[derive(Debug, Clone, Default)]
pub struct CategoryDictionary {
    codes: HashMap<String, u32>,
    names: Vec<String>,
}

impl CategoryDictionary {
    /// Code for `name`, interning it if new; errors past `cap`.
    fn intern(&mut self, name: &str, cap: u32, what: &str) -> Result<u32> {
        if let Some(&c) = self.codes.get(name) {
            return Ok(c);
        }
        let code = self.names.len() as u32;
        if code >= cap {
            return Err(DataError::Schema(format!(
                "{what}: more than {cap} distinct values (at {name:?})"
            )));
        }
        self.codes.insert(name.to_string(), code);
        self.names.push(name.to_string());
        Ok(code)
    }

    /// The interned name for `code`, if any.
    pub fn name(&self, code: u32) -> Option<&str> {
        self.names.get(code as usize).map(String::as_str)
    }

    /// The code for `name`, if interned.
    pub fn code(&self, name: &str) -> Option<u32> {
        self.codes.get(name).copied()
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Dictionaries produced by an import: one per categorical attribute (by
/// attribute index) plus one for the label.
#[derive(Debug, Clone, Default)]
pub struct CsvDictionaries {
    /// Per-attribute dictionaries (empty for numeric attributes and for
    /// categorical columns that used numeric codes directly).
    pub attributes: Vec<CategoryDictionary>,
    /// Label dictionary (empty if labels were numeric).
    pub label: CategoryDictionary,
}

/// Split one CSV line into fields, honoring quotes.
fn split_line(line: &str, delimiter: char) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(c);
            }
        } else if c == '"' && field.is_empty() {
            in_quotes = true;
        } else if c == delimiter {
            fields.push(std::mem::take(&mut field));
        } else {
            field.push(c);
        }
    }
    if in_quotes {
        return Err(DataError::Corrupt("unterminated quoted CSV field".into()));
    }
    fields.push(field);
    Ok(fields)
}

struct RowParser {
    schema: Arc<Schema>,
    options: CsvOptions,
    dicts: CsvDictionaries,
}

impl RowParser {
    fn new(schema: Arc<Schema>, options: CsvOptions) -> Self {
        let dicts = CsvDictionaries {
            attributes: (0..schema.n_attributes())
                .map(|_| CategoryDictionary::default())
                .collect(),
            label: CategoryDictionary::default(),
        };
        RowParser {
            schema,
            options,
            dicts,
        }
    }

    fn parse(&mut self, line_no: usize, line: &str) -> Result<Record> {
        let cells = split_line(line, self.options.delimiter)?;
        let m = self.schema.n_attributes();
        if cells.len() != m + 1 {
            return Err(DataError::Corrupt(format!(
                "line {line_no}: {} fields, expected {} (attributes + label)",
                cells.len(),
                m + 1
            )));
        }
        let label_col = self.options.label_column.unwrap_or(m);
        if label_col > m {
            return Err(DataError::Invalid(format!(
                "label_column {label_col} out of range for {} columns",
                m + 1
            )));
        }
        let mut fields = Vec::with_capacity(m);
        let mut attr = 0usize;
        let mut label: Option<u16> = None;
        for (col, cell) in cells.iter().enumerate() {
            let cell = cell.trim();
            if col == label_col {
                let k = self.schema.n_classes() as u32;
                let code = match cell.parse::<u16>() {
                    Ok(v) if (v as usize) < self.schema.n_classes() => v,
                    _ => self.dicts.label.intern(cell, k, "label")? as u16,
                };
                label = Some(code);
                continue;
            }
            match self.schema.attribute(attr).ty() {
                AttrType::Numeric => {
                    let v: f64 = cell.parse().map_err(|_| {
                        DataError::Corrupt(format!(
                            "line {line_no}, column {col}: {cell:?} is not numeric"
                        ))
                    })?;
                    if !v.is_finite() {
                        return Err(DataError::Corrupt(format!(
                            "line {line_no}, column {col}: non-finite value"
                        )));
                    }
                    fields.push(Field::Num(v));
                }
                AttrType::Categorical { cardinality } => {
                    let code = match cell.parse::<u32>() {
                        Ok(v) if v < cardinality => v,
                        _ => self.dicts.attributes[attr].intern(
                            cell,
                            cardinality,
                            self.schema.attribute(attr).name(),
                        )?,
                    };
                    fields.push(Field::Cat(code));
                }
            }
            attr += 1;
        }
        Ok(Record::new(fields, label.expect("label column visited")))
    }
}

/// Read a CSV file fully into memory.
pub fn read_csv(
    path: impl AsRef<Path>,
    schema: Arc<Schema>,
    options: CsvOptions,
) -> Result<(MemoryDataset, CsvDictionaries)> {
    let file = std::fs::File::open(path)?;
    let mut parser = RowParser::new(schema.clone(), options);
    let mut records = Vec::new();
    for (i, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line?;
        if i == 0 && parser.options.has_header {
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        records.push(parser.parse(i + 1, &line)?);
    }
    Ok((MemoryDataset::new(schema, records), parser.dicts))
}

/// Stream a CSV file into an on-disk [`FileDataset`] (constant memory).
pub fn import_csv(
    csv_path: impl AsRef<Path>,
    out_path: impl AsRef<Path>,
    schema: Arc<Schema>,
    options: CsvOptions,
) -> Result<(FileDataset, CsvDictionaries)> {
    let file = std::fs::File::open(csv_path)?;
    let mut parser = RowParser::new(schema.clone(), options);
    let mut writer = FileDatasetWriter::create(out_path, schema)?;
    for (i, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line?;
        if i == 0 && parser.options.has_header {
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        writer.append(&parser.parse(i + 1, &line)?)?;
    }
    Ok((writer.finish()?, parser.dicts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::RecordSource;
    use crate::schema::Attribute;

    fn schema() -> Arc<Schema> {
        Schema::shared(
            vec![
                Attribute::numeric("age"),
                Attribute::categorical("city", 4),
                Attribute::numeric("income"),
            ],
            2,
        )
        .unwrap()
    }

    fn write_tmp(name: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("boat-csv-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn reads_numeric_codes_and_strings() {
        let path = write_tmp(
            "basic.csv",
            "age,city,income,label\n34,berlin,52000,yes\n41,tokyo,61000,no\n29,berlin,38000,yes\n",
        );
        let (ds, dicts) = read_csv(&path, schema(), CsvOptions::default()).unwrap();
        assert_eq!(ds.len(), 3);
        let r = &ds.records()[0];
        assert_eq!(r.num(0), 34.0);
        assert_eq!(r.cat(1), 0); // berlin interned first
        assert_eq!(r.num(2), 52000.0);
        assert_eq!(r.label(), 0); // "yes" interned first
        assert_eq!(ds.records()[1].cat(1), 1); // tokyo
        assert_eq!(ds.records()[1].label(), 1); // no
        assert_eq!(ds.records()[2].cat(1), 0);
        assert_eq!(dicts.attributes[1].name(1), Some("tokyo"));
        assert_eq!(dicts.label.code("no"), Some(1));
    }

    #[test]
    fn numeric_category_codes_pass_through() {
        let path = write_tmp("codes.csv", "30,2,1000,1\n31,0,2000,0\n");
        let opts = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        let (ds, dicts) = read_csv(&path, schema(), opts).unwrap();
        assert_eq!(ds.records()[0].cat(1), 2);
        assert_eq!(ds.records()[0].label(), 1);
        assert!(dicts.attributes[1].is_empty(), "no interning needed");
    }

    #[test]
    fn quoted_fields_and_embedded_delimiters() {
        let path = write_tmp(
            "quotes.csv",
            "age,city,income,label\n34,\"san, francisco\",52000,\"yes\"\n35,\"ab\"\"cd\",1,no\n",
        );
        let (ds, dicts) = read_csv(&path, schema(), CsvOptions::default()).unwrap();
        assert_eq!(dicts.attributes[1].name(0), Some("san, francisco"));
        assert_eq!(dicts.attributes[1].name(1), Some("ab\"cd"));
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn label_column_override() {
        let path = write_tmp("labelfirst.csv", "1,30,2,1000\n0,31,0,2000\n");
        let opts = CsvOptions {
            has_header: false,
            label_column: Some(0),
            ..CsvOptions::default()
        };
        let (ds, _) = read_csv(&path, schema(), opts).unwrap();
        assert_eq!(ds.records()[0].label(), 1);
        assert_eq!(ds.records()[0].num(0), 30.0);
    }

    #[test]
    fn wrong_column_count_is_an_error_with_line_number() {
        let path = write_tmp("short.csv", "30,2,1000,1\n31,0\n");
        let opts = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        let err = read_csv(&path, schema(), opts).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn bad_number_is_an_error() {
        let path = write_tmp("badnum.csv", "abc,2,1000,1\n");
        let opts = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        assert!(read_csv(&path, schema(), opts).is_err());
    }

    #[test]
    fn dictionary_overflow_is_an_error() {
        let path = write_tmp(
            "overflow.csv",
            "1,a,1,0\n1,b,1,0\n1,c,1,0\n1,d,1,0\n1,e,1,0\n",
        );
        let opts = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        let err = read_csv(&path, schema(), opts).unwrap_err();
        assert!(err.to_string().contains("city"), "{err}");
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let path = write_tmp("unterm.csv", "1,\"oops,1,0\n");
        let opts = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        assert!(read_csv(&path, schema(), opts).is_err());
    }

    #[test]
    fn import_streams_to_a_file_dataset() {
        let csv = write_tmp(
            "streamed.csv",
            "age,city,income,label\n34,berlin,52000,yes\n41,tokyo,61000,no\n",
        );
        let out = std::env::temp_dir()
            .join("boat-csv-tests")
            .join("streamed.boat");
        let (ds, dicts) = import_csv(&csv, &out, schema(), CsvOptions::default()).unwrap();
        assert_eq!(ds.len(), 2);
        let records = ds.collect_records().unwrap();
        assert_eq!(records[1].cat(1), 1);
        assert_eq!(dicts.label.len(), 2);
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn blank_lines_are_skipped() {
        let path = write_tmp("blank.csv", "30,2,1000,1\n\n31,0,2000,0\n\n");
        let opts = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        let (ds, _) = read_csv(&path, schema(), opts).unwrap();
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn semicolon_delimiter() {
        let path = write_tmp("semi.csv", "30;2;1000;1\n");
        let opts = CsvOptions {
            has_header: false,
            delimiter: ';',
            ..CsvOptions::default()
        };
        let (ds, _) = read_csv(&path, schema(), opts).unwrap();
        assert_eq!(ds.records()[0].num(2), 1000.0);
    }
}

//! In-memory record representation.

use crate::schema::{AttrType, Schema};
use std::fmt;

/// A single predictor-attribute value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Field {
    /// Numeric value.
    Num(f64),
    /// Categorical category code.
    Cat(u32),
}

impl Field {
    /// The numeric value; panics if categorical.
    #[inline]
    pub fn num(self) -> f64 {
        match self {
            Field::Num(v) => v,
            Field::Cat(_) => panic!("expected numeric field, found categorical"),
        }
    }

    /// The category code; panics if numeric.
    #[inline]
    pub fn cat(self) -> u32 {
        match self {
            Field::Cat(v) => v,
            Field::Num(_) => panic!("expected categorical field, found numeric"),
        }
    }
}

/// One training record: predictor fields plus a class label in
/// `0..schema.n_classes()`.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    fields: Box<[Field]>,
    label: u16,
}

impl Record {
    /// Create a record from fields and a class label.
    pub fn new(fields: impl Into<Box<[Field]>>, label: u16) -> Self {
        Record {
            fields: fields.into(),
            label,
        }
    }

    /// All predictor fields, in schema order.
    #[inline]
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// The field at attribute index `idx`.
    #[inline]
    pub fn field(&self, idx: usize) -> Field {
        self.fields[idx]
    }

    /// The numeric value of attribute `idx`; panics if it is categorical.
    #[inline]
    pub fn num(&self, idx: usize) -> f64 {
        self.fields[idx].num()
    }

    /// The category code of attribute `idx`; panics if it is numeric.
    #[inline]
    pub fn cat(&self, idx: usize) -> u32 {
        self.fields[idx].cat()
    }

    /// The class label.
    #[inline]
    pub fn label(&self) -> u16 {
        self.label
    }

    /// Replace the class label, returning the modified record. Used by the
    /// data generator's noise injection.
    pub fn with_label(mut self, label: u16) -> Self {
        self.label = label;
        self
    }

    /// Check that this record conforms to `schema`: field count, field types,
    /// category codes in range, label in range, numeric values finite.
    pub fn validate(&self, schema: &Schema) -> crate::Result<()> {
        self.validate_shape(schema)?;
        for (i, f) in self.fields.iter().enumerate() {
            if let Field::Num(v) = f {
                if !v.is_finite() {
                    return Err(crate::DataError::Schema(format!(
                        "attribute {i} has non-finite value {v}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The structural part of [`Record::validate`]: field count, field
    /// types, category codes in range and label in range. Non-finite
    /// numeric values pass.
    pub fn validate_shape(&self, schema: &Schema) -> crate::Result<()> {
        if self.fields.len() != schema.n_attributes() {
            return Err(crate::DataError::Schema(format!(
                "record has {} fields, schema has {} attributes",
                self.fields.len(),
                schema.n_attributes()
            )));
        }
        for (i, f) in self.fields.iter().enumerate() {
            match (schema.attribute(i).ty(), f) {
                (AttrType::Numeric, Field::Num(_)) => {}
                (AttrType::Categorical { cardinality }, Field::Cat(c)) => {
                    if *c >= cardinality {
                        return Err(crate::DataError::Schema(format!(
                            "attribute {i} category {c} out of range 0..{cardinality}"
                        )));
                    }
                }
                _ => {
                    return Err(crate::DataError::Schema(format!(
                        "attribute {i} field type does not match schema"
                    )))
                }
            }
        }
        if (self.label as usize) >= schema.n_classes() {
            return Err(crate::DataError::Schema(format!(
                "label {} out of range 0..{}",
                self.label,
                schema.n_classes()
            )));
        }
        Ok(())
    }
}

/// Read access to one tuple's fields, whatever holds them: a decoded
/// [`Record`] or an encoded row read in place
/// ([`EncodedRow`](crate::codec::EncodedRow)). Code generic over it reads
/// both without decoding.
pub trait Fields {
    /// The numeric value of attribute `attr`.
    fn num(&self, attr: usize) -> f64;
    /// The category code of attribute `attr`.
    fn cat(&self, attr: usize) -> u32;
    /// The class label.
    fn label(&self) -> u16;
}

impl Fields for Record {
    #[inline]
    fn num(&self, attr: usize) -> f64 {
        Record::num(self, attr)
    }
    #[inline]
    fn cat(&self, attr: usize) -> u32 {
        Record::cat(self, attr)
    }
    #[inline]
    fn label(&self) -> u16 {
        Record::label(self)
    }
}

impl<T: Fields + ?Sized> Fields for &T {
    #[inline]
    fn num(&self, attr: usize) -> f64 {
        T::num(self, attr)
    }
    #[inline]
    fn cat(&self, attr: usize) -> u32 {
        T::cat(self, attr)
    }
    #[inline]
    fn label(&self) -> u16 {
        T::label(self)
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match field {
                Field::Num(v) => write!(f, "{v}")?,
                Field::Cat(c) => write!(f, "#{c}")?,
            }
        }
        write!(f, "] -> {}", self.label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn schema() -> Schema {
        Schema::new(
            vec![Attribute::numeric("x"), Attribute::categorical("c", 3)],
            2,
        )
        .unwrap()
    }

    fn rec(x: f64, c: u32, label: u16) -> Record {
        Record::new(vec![Field::Num(x), Field::Cat(c)], label)
    }

    #[test]
    fn accessors() {
        let r = rec(1.5, 2, 1);
        assert_eq!(r.num(0), 1.5);
        assert_eq!(r.cat(1), 2);
        assert_eq!(r.label(), 1);
        assert_eq!(r.fields().len(), 2);
    }

    #[test]
    #[should_panic(expected = "expected numeric")]
    fn num_on_categorical_panics() {
        rec(1.0, 0, 0).num(1);
    }

    #[test]
    #[should_panic(expected = "expected categorical")]
    fn cat_on_numeric_panics() {
        rec(1.0, 0, 0).cat(0);
    }

    #[test]
    fn validate_ok() {
        rec(1.0, 2, 1).validate(&schema()).unwrap();
    }

    #[test]
    fn validate_rejects_bad_shape() {
        let s = schema();
        assert!(Record::new(vec![Field::Num(1.0)], 0).validate(&s).is_err());
        assert!(rec(1.0, 3, 0).validate(&s).is_err()); // category out of range
        assert!(rec(1.0, 0, 2).validate(&s).is_err()); // label out of range
        assert!(rec(f64::NAN, 0, 0).validate(&s).is_err());
        rec(f64::NAN, 0, 0).validate_shape(&s).unwrap();
        let swapped = Record::new(vec![Field::Cat(0), Field::Cat(0)], 0);
        assert!(swapped.validate(&s).is_err());
    }

    #[test]
    fn with_label_replaces_label_only() {
        let r = rec(1.0, 2, 0).with_label(1);
        assert_eq!(r.label(), 1);
        assert_eq!(r.num(0), 1.0);
    }

    #[test]
    fn display_shows_fields_and_label() {
        let s = rec(2.0, 1, 0).to_string();
        assert!(s.contains('2'));
        assert!(s.contains("#1"));
        assert!(s.ends_with("-> 0"));
    }
}

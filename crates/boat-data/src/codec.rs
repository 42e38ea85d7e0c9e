//! Fixed-width binary record codec.
//!
//! The paper's synthetic tuples are 40-byte fixed-width binary records; we
//! generalize to any [`Schema`]: numeric fields are 8-byte little-endian
//! IEEE-754 doubles, categorical fields 4-byte little-endian codes, and the
//! class label a trailing 2-byte little-endian integer. Fixed width keeps
//! sequential scans branch-free and makes file sizes exactly
//! `n_records * schema.record_width()`.

use crate::record::{Field, Fields, Record};
use crate::schema::{AttrType, Schema};
use crate::{DataError, Result};

/// Encode `record` onto the end of `buf`. The record must have the shape
/// of `schema` ([`Record::validate_shape`]: field count and types, category
/// codes and label in range), or the call is [`DataError::Schema`] and
/// `buf` is left as it was. Non-finite numeric values are encoded as they
/// are.
pub fn encode_into(schema: &Schema, record: &Record, buf: &mut Vec<u8>) -> Result<()> {
    let at = buf.len();
    buf.reserve(schema.record_width());
    let fields = record.fields();
    // One pass checks and writes each field.
    let fits = fields.len() == schema.n_attributes()
        && (record.label() as usize) < schema.n_classes()
        && fields
            .iter()
            .enumerate()
            .all(|(i, field)| match (schema.attribute(i).ty(), field) {
                (AttrType::Numeric, Field::Num(v)) => {
                    buf.extend_from_slice(&v.to_le_bytes());
                    true
                }
                (AttrType::Categorical { cardinality }, Field::Cat(c)) if *c < cardinality => {
                    buf.extend_from_slice(&c.to_le_bytes());
                    true
                }
                _ => false,
            });
    if !fits {
        buf.truncate(at);
        // The shape check names the field that does not fit.
        let misfit = record.validate_shape(schema).err();
        return Err(misfit.unwrap_or_else(|| DataError::Schema("record does not fit".into())));
    }
    buf.extend_from_slice(&record.label().to_le_bytes());
    Ok(())
}

/// Encode `record` into a fresh buffer of exactly `schema.record_width()`
/// bytes.
pub fn encode(schema: &Schema, record: &Record) -> Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(schema.record_width());
    encode_into(schema, record, &mut buf)?;
    Ok(buf)
}

/// The decode checks, in one place: `row` is exactly `width` bytes, every
/// category code among `fields` is below its cardinality and the label is
/// below `n_classes`. Hands each field of `fields` to `visit` in order and
/// returns the label. [`RowLayout::decode`] and [`RowLayout::check`] run
/// through this function.
#[inline]
fn walk_row(
    row: &[u8],
    width: usize,
    n_classes: usize,
    fields: impl Iterator<Item = (usize, AttrType)>,
    mut visit: impl FnMut(Field),
) -> Result<u16> {
    if row.len() != width {
        return Err(DataError::Corrupt(format!(
            "record slice is {} bytes, expected {width}",
            row.len()
        )));
    }
    for (off, ty) in fields {
        visit(match ty {
            AttrType::Numeric => Field::Num(read_num(row, off)),
            AttrType::Categorical { cardinality } => {
                let c = read_cat(row, off);
                if c >= cardinality {
                    return Err(DataError::Corrupt(format!(
                        "category code {c} out of range 0..{cardinality}"
                    )));
                }
                Field::Cat(c)
            }
        });
    }
    let label = read_label(row);
    if (label as usize) >= n_classes {
        return Err(DataError::Corrupt(format!(
            "label {label} out of range 0..{n_classes}"
        )));
    }
    Ok(label)
}

#[inline]
fn read_num(row: &[u8], off: usize) -> f64 {
    f64::from_le_bytes(row[off..off + 8].try_into().expect("8-byte slice"))
}

#[inline]
fn read_cat(row: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(row[off..off + 4].try_into().expect("4-byte slice"))
}

#[inline]
fn read_label(row: &[u8]) -> u16 {
    u16::from_le_bytes(row[row.len() - 2..].try_into().expect("2-byte slice"))
}

/// Where each field of a schema's encoded rows sits, computed once so a
/// loop over many rows can check them and read single fields in place,
/// without decoding a [`Record`].
#[derive(Debug, Clone)]
pub struct RowLayout {
    width: usize,
    /// Byte offset and type of every attribute's field, in schema order.
    fields: Box<[(usize, AttrType)]>,
    /// The categorical entries of `fields`: all that a check reads.
    cats: Box<[(usize, AttrType)]>,
    n_classes: usize,
}

impl RowLayout {
    /// The layout of `schema`'s encoded rows.
    pub fn new(schema: &Schema) -> Self {
        let mut off = 0usize;
        let fields: Box<[(usize, AttrType)]> = schema
            .attributes()
            .iter()
            .map(|attr| {
                let ty = attr.ty();
                let at = off;
                off += if ty.is_numeric() { 8 } else { 4 };
                (at, ty)
            })
            .collect();
        let cats = fields
            .iter()
            .filter(|(_, ty)| !ty.is_numeric())
            .copied()
            .collect();
        RowLayout {
            width: schema.record_width(),
            fields,
            cats,
            n_classes: schema.n_classes(),
        }
    }

    /// Bytes per encoded row (`Schema::record_width`).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Check one encoded row: exactly [`RowLayout::width`] bytes, every
    /// category code below its attribute's cardinality and the label below
    /// the class count. These are the checks every decode makes.
    #[inline]
    pub fn check(&self, row: &[u8]) -> Result<()> {
        walk_row(
            row,
            self.width,
            self.n_classes,
            self.cats.iter().copied(),
            |_| {},
        )
        .map(drop)
    }

    /// The numeric field of attribute `attr` in `row`. Like the other field
    /// readers, it expects a row that passed [`RowLayout::check`] and panics
    /// on one shorter than [`RowLayout::width`].
    #[inline]
    pub fn num(&self, row: &[u8], attr: usize) -> f64 {
        read_num(row, self.fields[attr].0)
    }

    /// The category code of attribute `attr` in `row`.
    #[inline]
    pub fn cat(&self, row: &[u8], attr: usize) -> u32 {
        read_cat(row, self.fields[attr].0)
    }

    /// The class label of `row`.
    #[inline]
    pub fn label(&self, row: &[u8]) -> u16 {
        read_label(row)
    }

    /// Whether rows `a` and `b` hold equal records as `Record ==` compares
    /// the records they decode to: the same label and, field by field, the
    /// same category code or an `==` numeric value (so `0.0` matches `-0.0`
    /// and NaN matches nothing, not even itself). Both rows are
    /// [`RowLayout::width`] bytes.
    pub fn matches(&self, a: &[u8], b: &[u8]) -> bool {
        read_label(a) == read_label(b)
            && self.fields.iter().all(|&(off, ty)| match ty {
                AttrType::Numeric => read_num(a, off) == read_num(b, off),
                AttrType::Categorical { .. } => read_cat(a, off) == read_cat(b, off),
            })
    }

    /// The rows packed back to back in `bytes`, read in place. Every row is
    /// checked first ([`RowLayout::check`]), and `bytes` must hold whole
    /// rows; otherwise the call is [`DataError::Corrupt`].
    pub fn rows<'a>(
        &'a self,
        bytes: &'a [u8],
    ) -> Result<impl ExactSizeIterator<Item = EncodedRow<'a>> + 'a> {
        if !bytes.len().is_multiple_of(self.width) {
            return Err(DataError::Corrupt(format!(
                "{} bytes do not hold whole {}-byte rows",
                bytes.len(),
                self.width
            )));
        }
        let rows = bytes.chunks_exact(self.width);
        for row in rows.clone() {
            self.check(row)?;
        }
        Ok(rows.map(|row| EncodedRow::checked(self, row)))
    }

    /// Decode one row, making the checks of [`RowLayout::check`].
    pub fn decode(&self, row: &[u8]) -> Result<Record> {
        let mut fields = Vec::with_capacity(self.fields.len());
        let label = walk_row(
            row,
            self.width,
            self.n_classes,
            self.fields.iter().copied(),
            |f| fields.push(f),
        )?;
        Ok(Record::new(fields, label))
    }
}

/// One encoded row that has passed [`RowLayout::check`], read in place
/// through its layout's precomputed offsets.
#[derive(Debug, Clone, Copy)]
pub struct EncodedRow<'a> {
    layout: &'a RowLayout,
    bytes: &'a [u8],
}

impl<'a> EncodedRow<'a> {
    /// Check `bytes` with [`RowLayout::check`] and wrap them.
    #[inline]
    pub fn new(layout: &'a RowLayout, bytes: &'a [u8]) -> Result<Self> {
        layout.check(bytes)?;
        Ok(EncodedRow { layout, bytes })
    }

    /// Wrap `bytes` that already passed `layout.check`.
    #[inline]
    pub(crate) fn checked(layout: &'a RowLayout, bytes: &'a [u8]) -> Self {
        EncodedRow { layout, bytes }
    }

    /// The row's [`RowLayout::width`] bytes.
    #[inline]
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Whether the row and `other` hold equal records
    /// ([`RowLayout::matches`]).
    #[inline]
    pub fn matches(&self, other: &[u8]) -> bool {
        self.layout.matches(self.bytes, other)
    }
}

impl Fields for EncodedRow<'_> {
    #[inline]
    fn num(&self, attr: usize) -> f64 {
        self.layout.num(self.bytes, attr)
    }
    #[inline]
    fn cat(&self, attr: usize) -> u32 {
        self.layout.cat(self.bytes, attr)
    }
    #[inline]
    fn label(&self) -> u16 {
        self.layout.label(self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn schema() -> Schema {
        Schema::new(
            vec![
                Attribute::numeric("a"),
                Attribute::categorical("b", 10),
                Attribute::numeric("c"),
            ],
            3,
        )
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let s = schema();
        let r = Record::new(vec![Field::Num(-1.25), Field::Cat(7), Field::Num(1e9)], 2);
        let bytes = encode(&s, &r).unwrap();
        assert_eq!(bytes.len(), s.record_width());
        let back = RowLayout::new(&s).decode(&bytes).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn decode_rejects_wrong_length() {
        let s = schema();
        assert!(RowLayout::new(&s).decode(&[0u8; 5]).is_err());
    }

    #[test]
    fn decode_rejects_out_of_range_category() {
        let s = schema();
        let r = Record::new(vec![Field::Num(0.0), Field::Cat(3), Field::Num(0.0)], 0);
        let mut bytes = encode(&s, &r).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(RowLayout::new(&s).decode(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_out_of_range_label() {
        let s = schema();
        let r = Record::new(vec![Field::Num(0.0), Field::Cat(3), Field::Num(0.0)], 0);
        let mut bytes = encode(&s, &r).unwrap();
        let w = s.record_width();
        bytes[w - 2..].copy_from_slice(&9u16.to_le_bytes());
        assert!(RowLayout::new(&s).decode(&bytes).is_err());
    }

    #[test]
    fn layout_reads_fields_in_place() {
        let s = schema();
        let layout = RowLayout::new(&s);
        assert_eq!(layout.width(), s.record_width());
        let r = Record::new(vec![Field::Num(-1.25), Field::Cat(7), Field::Num(1e9)], 2);
        let bytes = encode(&s, &r).unwrap();
        layout.check(&bytes).unwrap();
        assert_eq!(layout.num(&bytes, 0), -1.25);
        assert_eq!(layout.cat(&bytes, 1), 7);
        assert_eq!(layout.num(&bytes, 2), 1e9);
        assert_eq!(layout.label(&bytes), 2);
        assert_eq!(layout.decode(&bytes).unwrap(), r);
    }

    #[test]
    fn matches_compares_like_record_eq() {
        let s = schema();
        let layout = RowLayout::new(&s);
        let row = |nums: [f64; 2], cat: u32, label: u16| {
            let r = Record::new(
                vec![Field::Num(nums[0]), Field::Cat(cat), Field::Num(nums[1])],
                label,
            );
            encode(&s, &r).unwrap()
        };
        let neg_zero = row([-0.0, 1e9], 7, 2);
        let pos_zero = row([0.0, 1e9], 7, 2);
        assert!(layout.matches(&neg_zero, &neg_zero));
        assert!(layout.matches(&neg_zero, &pos_zero), "0.0 == -0.0");
        for miss in [
            row([0.0, 1e9], 7, 1),
            row([0.0, 1e9], 6, 2),
            row([0.0, 1.0], 7, 2),
        ] {
            assert!(!layout.matches(&pos_zero, &miss));
        }
        let nan = row([f64::NAN, 1e9], 7, 2);
        assert!(!layout.matches(&nan, &nan), "NaN != NaN");
    }

    #[test]
    fn rows_checks_every_packed_row() {
        let s = schema();
        let layout = RowLayout::new(&s);
        let a = Record::new(vec![Field::Num(1.5), Field::Cat(2), Field::Num(-3.0)], 1);
        let b = Record::new(vec![Field::Num(-0.0), Field::Cat(9), Field::Num(7.0)], 2);
        let mut bytes = encode(&s, &a).unwrap();
        bytes.extend(encode(&s, &b).unwrap());
        let read: Vec<Record> = layout
            .rows(&bytes)
            .unwrap()
            .map(|row| layout.decode(row.bytes()).unwrap())
            .collect();
        assert_eq!(read, vec![a, b]);
        assert_eq!(layout.rows(&[]).unwrap().len(), 0);
        assert!(matches!(
            layout.rows(&bytes[..bytes.len() - 1]),
            Err(DataError::Corrupt(_))
        ));
        let w = s.record_width();
        bytes[2 * w - 2..].copy_from_slice(&3u16.to_le_bytes());
        assert!(matches!(layout.rows(&bytes), Err(DataError::Corrupt(_))));
    }

    #[test]
    fn encode_rejects_records_of_another_shape() {
        let s = schema();
        let r = Record::new(vec![Field::Cat(0), Field::Cat(1), Field::Num(0.0)], 0);
        assert!(encode(&s, &r).is_err());
        let short = Record::new(vec![Field::Num(0.0)], 0);
        assert!(encode(&s, &short).is_err());
        let bad_code = Record::new(vec![Field::Num(0.0), Field::Cat(10), Field::Num(0.0)], 0);
        let bad_label = Record::new(vec![Field::Num(0.0), Field::Cat(9), Field::Num(0.0)], 3);
        let mut buf = vec![1u8];
        for r in [&r, &short, &bad_code, &bad_label] {
            assert!(matches!(
                encode_into(&s, r, &mut buf),
                Err(DataError::Schema(_))
            ));
        }
        assert_eq!(buf, [1u8], "a refused record leaves no bytes behind");
    }

    #[test]
    fn negative_zero_and_specials_roundtrip() {
        let s = Schema::new(vec![Attribute::numeric("x")], 2).unwrap();
        let layout = RowLayout::new(&s);
        for v in [-0.0f64, f64::MIN, f64::MAX, f64::EPSILON] {
            let r = Record::new(vec![Field::Num(v)], 1);
            let back = layout.decode(&encode(&s, &r).unwrap()).unwrap();
            assert_eq!(back.num(0).to_bits(), v.to_bits());
        }
    }
}

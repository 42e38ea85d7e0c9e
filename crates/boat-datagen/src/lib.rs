//! The Agrawal–Imielinski–Swami synthetic classification benchmark \[AIS93\].
//!
//! The BOAT paper's entire evaluation (§5) runs on this generator — the same
//! one used by SLIQ, SPRINT, PUBLIC and RainForest. Each tuple has nine
//! predictor attributes describing a (fictional) person:
//!
//! | attribute  | type | distribution |
//! |---|---|---|
//! | `salary`     | numeric | uniform 20 000 … 150 000 |
//! | `commission` | numeric | 0 if `salary ≥ 75 000`, else uniform 10 000 … 75 000 |
//! | `age`        | numeric | uniform 20 … 80 |
//! | `elevel`     | categorical(5)  | uniform 0 … 4 |
//! | `car`        | categorical(20) | uniform |
//! | `zipcode`    | categorical(9)  | uniform |
//! | `hvalue`     | numeric | uniform `0.5·k·100 000 … 1.5·k·100 000`, `k` from `zipcode` |
//! | `hyears`     | numeric | uniform 1 … 30 |
//! | `loan`       | numeric | uniform 0 … 500 000 |
//!
//! Ten published classification functions assign the binary class label
//! ("Group A" = label 0, "Group B" = label 1). The paper uses functions 1, 6
//! and 7; all ten are implemented. The generator also supports the paper's
//! evaluation knobs: label **noise** (Figures 7–9), **extra random
//! attributes** (Figures 10–11), and a **perturbed Function 1** whose
//! decision surface changes in part of the attribute space (Figure 14's
//! distribution-drift experiment).
//!
//! [`SyntheticSource`] implements [`RecordSource`] directly: every `scan()`
//! regenerates the identical pseudo-random stream from the configured seed,
//! so a training run can stream from the generator *without materializing
//! the training set* — the paper's data-warehouse motivation. Use
//! [`GeneratorConfig::materialize`] to write a [`FileDataset`] when on-disk
//! behaviour (and scan-cost realism) is wanted.

#![warn(missing_docs)]

pub mod adversarial;
pub mod instability;

use boat_data::dataset::{RecordScan, RecordSource};
use boat_data::{
    Attribute, Field, FileDataset, FileDatasetWriter, Record, Result, ScanCounters, Schema,
};
use boat_obs::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;

/// Which published classification function labels the tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // the variants are the published function numbers
pub enum LabelFunction {
    F1,
    F2,
    F3,
    F4,
    F5,
    F6,
    F7,
    F8,
    F9,
    F10,
    /// Function 1 with the decision surface *changed* in the high-salary
    /// region (`salary > 100 000`): there, group A is `40 ≤ age < 60`
    /// (the complement of F1's predicate). Models the paper's Figure 14
    /// "distribution changes in part of the attribute space".
    F1Drift,
}

impl LabelFunction {
    /// Parse `1..=10` into the corresponding function.
    pub fn from_number(n: u32) -> Option<Self> {
        use LabelFunction::*;
        Some(match n {
            1 => F1,
            2 => F2,
            3 => F3,
            4 => F4,
            5 => F5,
            6 => F6,
            7 => F7,
            8 => F8,
            9 => F9,
            10 => F10,
            _ => return None,
        })
    }

    /// Evaluate the function on the nine base attribute values.
    /// Returns `true` for "Group A" (label 0).
    pub fn is_group_a(self, t: &BaseTuple) -> bool {
        use LabelFunction::*;
        let total = t.salary + t.commission;
        match self {
            F1 => t.age < 40.0 || t.age >= 60.0,
            F1Drift => {
                if t.salary > 100_000.0 {
                    (40.0..60.0).contains(&t.age)
                } else {
                    t.age < 40.0 || t.age >= 60.0
                }
            }
            F2 => {
                (t.age < 40.0 && (50_000.0..=100_000.0).contains(&t.salary))
                    || ((40.0..60.0).contains(&t.age) && (75_000.0..=125_000.0).contains(&t.salary))
                    || (t.age >= 60.0 && (25_000.0..=75_000.0).contains(&t.salary))
            }
            F3 => {
                (t.age < 40.0 && t.elevel <= 1)
                    || ((40.0..60.0).contains(&t.age) && (1..=3).contains(&t.elevel))
                    || (t.age >= 60.0 && (2..=4).contains(&t.elevel))
            }
            F4 => {
                if t.age < 40.0 {
                    if t.elevel <= 1 {
                        (25_000.0..=75_000.0).contains(&t.salary)
                    } else {
                        (50_000.0..=100_000.0).contains(&t.salary)
                    }
                } else if t.age < 60.0 {
                    if (1..=3).contains(&t.elevel) {
                        (50_000.0..=100_000.0).contains(&t.salary)
                    } else {
                        (75_000.0..=125_000.0).contains(&t.salary)
                    }
                } else if (2..=4).contains(&t.elevel) {
                    (50_000.0..=100_000.0).contains(&t.salary)
                } else {
                    (25_000.0..=75_000.0).contains(&t.salary)
                }
            }
            F5 => {
                if t.age < 40.0 {
                    if (50_000.0..=100_000.0).contains(&t.salary) {
                        (100_000.0..=300_000.0).contains(&t.loan)
                    } else {
                        (200_000.0..=400_000.0).contains(&t.loan)
                    }
                } else if t.age < 60.0 {
                    if (75_000.0..=125_000.0).contains(&t.salary) {
                        (200_000.0..=400_000.0).contains(&t.loan)
                    } else {
                        (300_000.0..=500_000.0).contains(&t.loan)
                    }
                } else if (25_000.0..=75_000.0).contains(&t.salary) {
                    (300_000.0..=500_000.0).contains(&t.loan)
                } else {
                    (100_000.0..=300_000.0).contains(&t.loan)
                }
            }
            F6 => {
                (t.age < 40.0 && (50_000.0..=100_000.0).contains(&total))
                    || ((40.0..60.0).contains(&t.age) && (75_000.0..=125_000.0).contains(&total))
                    || (t.age >= 60.0 && (25_000.0..=75_000.0).contains(&total))
            }
            F7 => 0.67 * total - 0.2 * t.loan - 20_000.0 > 0.0,
            F8 => 0.67 * total - 5_000.0 * t.elevel as f64 - 20_000.0 > 0.0,
            F9 => 0.67 * total - 5_000.0 * t.elevel as f64 - 0.2 * t.loan - 10_000.0 > 0.0,
            F10 => {
                let equity = 0.1 * t.hvalue * (t.hyears - 20.0).max(0.0);
                0.67 * total - 5_000.0 * t.elevel as f64 + 0.2 * equity - 10_000.0 > 0.0
            }
        }
    }
}

/// The nine base attribute values of one tuple, before labelling.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // field names are the published attribute names
pub struct BaseTuple {
    pub salary: f64,
    pub commission: f64,
    pub age: f64,
    pub elevel: u32,
    pub car: u32,
    pub zipcode: u32,
    pub hvalue: f64,
    pub hyears: f64,
    pub loan: f64,
}

impl BaseTuple {
    /// Draw one tuple from the published attribute distributions.
    ///
    /// Monetary attributes are whole currency units (integers stored as
    /// `f64`), matching the original generator's integer tuples — this is
    /// also what makes the RainForest AVC memory budgets of the paper's
    /// experiments meaningful (AVC-set size is the distinct-value count).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let salary = rng.random_range(20_000.0f64..150_000.0).floor();
        let commission = if salary >= 75_000.0 {
            0.0
        } else {
            rng.random_range(10_000.0f64..75_000.0).floor()
        };
        // Integer-valued, inclusive upper end (61 distinct ages). The
        // inclusive domain matters: it is what makes F1's root split at 59
        // strictly better than the one at 39 rather than an exact tie.
        let age = rng.random_range(20u32..=80) as f64;
        let elevel = rng.random_range(0..5u32);
        let car = rng.random_range(0..20u32);
        let zipcode = rng.random_range(0..9u32);
        // hvalue depends on zipcode: k in 1..=9.
        let k = (zipcode + 1) as f64;
        let hvalue = rng
            .random_range(0.5 * k * 100_000.0..1.5 * k * 100_000.0)
            .floor();
        let hyears = rng.random_range(1u32..=30) as f64;
        let loan = rng.random_range(0.0f64..500_000.0).floor();
        BaseTuple {
            salary,
            commission,
            age,
            elevel,
            car,
            zipcode,
            hvalue,
            hyears,
            loan,
        }
    }
}

/// Configuration of the synthetic workload.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    function: LabelFunction,
    seed: u64,
    noise: f64,
    extra_attrs: usize,
}

impl GeneratorConfig {
    /// A generator for the given labelling function, with no noise and no
    /// extra attributes.
    pub fn new(function: LabelFunction) -> Self {
        GeneratorConfig {
            function,
            seed: 0xB0A7,
            noise: 0.0,
            extra_attrs: 0,
        }
    }

    /// Set the pseudo-random seed (scans are deterministic in the seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the label-noise probability: with probability `p`, a tuple's
    /// label is flipped (Figures 7–9 sweep this from 2% to 10%).
    pub fn with_noise(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "noise must be a probability");
        self.noise = p;
        self
    }

    /// Append `k` extra numeric attributes with uniform random values in
    /// `[0, 1)` (Figures 10–11). They carry no predictive power, so the
    /// final tree is unchanged; only construction cost grows.
    pub fn with_extra_attrs(mut self, k: usize) -> Self {
        self.extra_attrs = k;
        self
    }

    /// The labelling function.
    pub fn function(&self) -> LabelFunction {
        self.function
    }

    /// The schema of generated records (9 base attributes + extras).
    pub fn schema(&self) -> Arc<Schema> {
        let mut attrs = vec![
            Attribute::numeric("salary"),
            Attribute::numeric("commission"),
            Attribute::numeric("age"),
            Attribute::categorical("elevel", 5),
            Attribute::categorical("car", 20),
            Attribute::categorical("zipcode", 9),
            Attribute::numeric("hvalue"),
            Attribute::numeric("hyears"),
            Attribute::numeric("loan"),
        ];
        for i in 0..self.extra_attrs {
            attrs.push(Attribute::numeric(format!("extra{i}")));
        }
        Schema::shared(attrs, 2).expect("generator schema is statically valid")
    }

    /// A streaming, resettable source of `n` synthetic records.
    pub fn source(&self, n: u64) -> SyntheticSource {
        SyntheticSource {
            config: self.clone(),
            schema: self.schema(),
            n,
            metrics: Registry::new(),
        }
    }

    /// Generate `n` records into memory.
    pub fn generate_vec(&self, n: usize) -> Vec<Record> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..n).map(|_| self.generate_one(&mut rng)).collect()
    }

    /// Materialize `n` records into a dataset file at `path`.
    pub fn materialize(&self, path: impl AsRef<Path>, n: u64) -> Result<FileDataset> {
        let mut writer = FileDatasetWriter::create(path, self.schema())?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..n {
            writer.append(&self.generate_one(&mut rng))?;
        }
        writer.finish()
    }

    fn generate_one(&self, rng: &mut StdRng) -> Record {
        let base = BaseTuple::generate(rng);
        let mut label: u16 = if self.function.is_group_a(&base) {
            0
        } else {
            1
        };
        // Label noise consumes one rng draw per tuple regardless of p, so
        // the attribute stream is identical across noise levels (as in the
        // paper, where noise perturbs labels of the same underlying data).
        let flip = rng.random::<f64>() < self.noise;
        if flip {
            label = 1 - label;
        }
        let mut fields = Vec::with_capacity(9 + self.extra_attrs);
        fields.push(Field::Num(base.salary));
        fields.push(Field::Num(base.commission));
        fields.push(Field::Num(base.age));
        fields.push(Field::Cat(base.elevel));
        fields.push(Field::Cat(base.car));
        fields.push(Field::Cat(base.zipcode));
        fields.push(Field::Num(base.hvalue));
        fields.push(Field::Num(base.hyears));
        fields.push(Field::Num(base.loan));
        for _ in 0..self.extra_attrs {
            fields.push(Field::Num(rng.random::<f64>()));
        }
        Record::new(fields, label)
    }
}

/// A resettable streaming source of synthetic records: every scan replays
/// the identical pseudo-random stream.
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    config: GeneratorConfig,
    schema: Arc<Schema>,
    n: u64,
    metrics: Registry,
}

impl RecordSource for SyntheticSource {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn scan(&self) -> Result<Box<dyn RecordScan + '_>> {
        let counters = ScanCounters::start(&self.metrics);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let config = self.config.clone();
        let width = self.schema.record_width() as u64;
        Ok(Box::new((0..self.n).map(move |_| {
            counters.read(1, width);
            Ok(config.generate_one(&mut rng))
        })))
    }

    fn len(&self) -> u64 {
        self.n
    }

    fn metrics(&self) -> &Registry {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boat_data::dataset::RecordSource;

    #[test]
    fn schema_has_nine_base_attributes() {
        let s = GeneratorConfig::new(LabelFunction::F1).schema();
        assert_eq!(s.n_attributes(), 9);
        assert_eq!(s.n_classes(), 2);
        assert_eq!(s.attr_index("salary"), Some(0));
        assert_eq!(s.attr_index("loan"), Some(8));
        assert_eq!(s.numeric_attrs().count(), 6);
        assert_eq!(s.categorical_attrs().count(), 3);
    }

    #[test]
    fn extra_attrs_extend_schema() {
        let s = GeneratorConfig::new(LabelFunction::F1)
            .with_extra_attrs(4)
            .schema();
        assert_eq!(s.n_attributes(), 13);
        assert_eq!(s.attr_index("extra3"), Some(12));
    }

    #[test]
    fn records_validate_against_schema() {
        let cfg = GeneratorConfig::new(LabelFunction::F7)
            .with_seed(9)
            .with_extra_attrs(2);
        let schema = cfg.schema();
        for r in cfg.generate_vec(500) {
            r.validate(&schema).unwrap();
        }
    }

    #[test]
    fn attribute_ranges_match_the_published_distributions() {
        let cfg = GeneratorConfig::new(LabelFunction::F1).with_seed(3);
        for r in cfg.generate_vec(2000) {
            let salary = r.num(0);
            let commission = r.num(1);
            assert_eq!(salary.fract(), 0.0, "monetary attributes are integers");
            assert_eq!(commission.fract(), 0.0);
            assert_eq!(r.num(6).fract(), 0.0);
            assert_eq!(r.num(8).fract(), 0.0);
            assert!((20_000.0..150_000.0).contains(&salary));
            if salary >= 75_000.0 {
                assert_eq!(commission, 0.0);
            } else {
                assert!((10_000.0..75_000.0).contains(&commission));
            }
            assert!((20.0..=80.0).contains(&r.num(2)));
            assert!(r.cat(3) < 5);
            assert!(r.cat(4) < 20);
            assert!(r.cat(5) < 9);
            let k = (r.cat(5) + 1) as f64;
            assert!((0.5 * k * 100_000.0..1.5 * k * 100_000.0).contains(&r.num(6)));
            assert!((1.0..=30.0).contains(&r.num(7)));
            assert!((0.0..500_000.0).contains(&r.num(8)));
        }
    }

    #[test]
    fn f1_labels_follow_the_age_predicate() {
        let cfg = GeneratorConfig::new(LabelFunction::F1).with_seed(4);
        for r in cfg.generate_vec(1000) {
            let age = r.num(2);
            let expect_a = !(40.0..60.0).contains(&age);
            assert_eq!(r.label() == 0, expect_a);
        }
    }

    #[test]
    fn f7_labels_follow_the_linear_rule() {
        let cfg = GeneratorConfig::new(LabelFunction::F7).with_seed(5);
        for r in cfg.generate_vec(1000) {
            let disposable = 0.67 * (r.num(0) + r.num(1)) - 0.2 * r.num(8) - 20_000.0;
            assert_eq!(r.label() == 0, disposable > 0.0);
        }
    }

    #[test]
    fn f6_labels_follow_the_three_band_rule() {
        let cfg = GeneratorConfig::new(LabelFunction::F6).with_seed(13);
        for r in cfg.generate_vec(1000) {
            let (salary, commission, age) = (r.num(0), r.num(1), r.num(2));
            let total = salary + commission;
            let expect_a = (age < 40.0 && (50_000.0..=100_000.0).contains(&total))
                || ((40.0..60.0).contains(&age) && (75_000.0..=125_000.0).contains(&total))
                || (age >= 60.0 && (25_000.0..=75_000.0).contains(&total));
            assert_eq!(r.label() == 0, expect_a);
        }
    }

    #[test]
    fn f9_labels_follow_the_four_attribute_rule() {
        let cfg = GeneratorConfig::new(LabelFunction::F9).with_seed(14);
        for r in cfg.generate_vec(1000) {
            let disposable = 0.67 * (r.num(0) + r.num(1))
                - 5_000.0 * r.cat(3) as f64
                - 0.2 * r.num(8)
                - 10_000.0;
            assert_eq!(r.label() == 0, disposable > 0.0);
        }
    }

    #[test]
    fn f10_labels_use_home_equity() {
        let cfg = GeneratorConfig::new(LabelFunction::F10).with_seed(15);
        for r in cfg.generate_vec(1000) {
            let equity = 0.1 * r.num(6) * (r.num(7) - 20.0).max(0.0);
            let disposable =
                0.67 * (r.num(0) + r.num(1)) - 5_000.0 * r.cat(3) as f64 + 0.2 * equity - 10_000.0;
            assert_eq!(r.label() == 0, disposable > 0.0);
        }
    }

    #[test]
    fn every_function_produces_both_classes() {
        for n in 1..=10 {
            let f = LabelFunction::from_number(n).unwrap();
            let cfg = GeneratorConfig::new(f).with_seed(6);
            let labels: Vec<u16> = cfg.generate_vec(3000).iter().map(|r| r.label()).collect();
            let a = labels.iter().filter(|&&l| l == 0).count();
            assert!(
                a > 0 && a < labels.len(),
                "function F{n} is degenerate: {a} group-A"
            );
        }
    }

    #[test]
    fn from_number_rejects_out_of_range() {
        assert_eq!(LabelFunction::from_number(0), None);
        assert_eq!(LabelFunction::from_number(11), None);
        assert_eq!(LabelFunction::from_number(6), Some(LabelFunction::F6));
    }

    #[test]
    fn noise_flips_roughly_p_of_labels() {
        let clean = GeneratorConfig::new(LabelFunction::F1).with_seed(7);
        let noisy = clean.clone().with_noise(0.10);
        let a = clean.generate_vec(20_000);
        let b = noisy.generate_vec(20_000);
        // Same seed + same draw structure => identical attributes.
        assert_eq!(a[0].num(0), b[0].num(0));
        let flipped = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| x.label() != y.label())
            .count();
        let frac = flipped as f64 / 20_000.0;
        assert!(
            (frac - 0.10).abs() < 0.01,
            "flip fraction {frac} far from 10%"
        );
    }

    #[test]
    fn drift_function_differs_only_in_high_salary_region() {
        let base = GeneratorConfig::new(LabelFunction::F1).with_seed(8);
        let drift = GeneratorConfig::new(LabelFunction::F1Drift).with_seed(8);
        for (x, y) in base.generate_vec(5000).iter().zip(drift.generate_vec(5000)) {
            if x.num(0) <= 100_000.0 {
                assert_eq!(x.label(), y.label(), "low-salary region must be unchanged");
            } else {
                assert_ne!(x.label(), y.label(), "high-salary region must be inverted");
            }
        }
    }

    #[test]
    fn source_scans_are_deterministic_and_counted() {
        let cfg = GeneratorConfig::new(LabelFunction::F6).with_seed(10);
        let src = cfg.source(100);
        let a = src.collect_records().unwrap();
        let b = src.collect_records().unwrap();
        assert_eq!(a, b, "rescanning a synthetic source must replay the stream");
        assert_eq!(src.metrics().snapshot().counter("data.input.scans"), 2);
        assert_eq!(src.len(), 100);
    }

    #[test]
    fn source_matches_generate_vec() {
        let cfg = GeneratorConfig::new(LabelFunction::F2).with_seed(11);
        assert_eq!(
            cfg.source(50).collect_records().unwrap(),
            cfg.generate_vec(50)
        );
    }

    #[test]
    fn materialize_roundtrips() {
        let dir = std::env::temp_dir().join("boat-datagen-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f1.boat");
        let cfg = GeneratorConfig::new(LabelFunction::F1).with_seed(12);
        let ds = cfg.materialize(&path, 200).unwrap();
        assert_eq!(ds.len(), 200);
        assert_eq!(ds.collect_records().unwrap(), cfg.generate_vec(200));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn different_seeds_differ() {
        let a = GeneratorConfig::new(LabelFunction::F1)
            .with_seed(1)
            .generate_vec(10);
        let b = GeneratorConfig::new(LabelFunction::F1)
            .with_seed(2)
            .generate_vec(10);
        assert_ne!(a, b);
    }
}

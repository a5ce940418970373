//! The four predefined display templates of §4.
//!
//! "BANKS templates provide several predefined ways of displaying any
//! data. Template instances are customized, stored in the database, and
//! given a hyperlink name": cross-tabs, group-by hierarchies, folder
//! views, and graphical charts. Templates can be *composed*: a chart
//! point or folder can link to another template instead of raw tuples.

pub mod chart;
pub mod crosstab;
pub mod folder;
pub mod groupby;

pub use chart::{ChartData, ChartKind, ChartPoint, ChartSpec};
pub use crosstab::{Crosstab, CrosstabSpec};
pub use folder::{FolderNode, FolderSpec};
pub use groupby::{GroupByLevel, GroupBySpec};

use crate::hyperlink::Hyperlink;
use banks_storage::{Database, StorageResult};
use std::collections::HashMap;

/// How a numeric value is derived from a set of tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Number of tuples.
    Count,
    /// Sum of a numeric column.
    Sum(u32),
}

impl Measure {
    /// Evaluate the measure over the values of `column` (already filtered
    /// tuples' values are streamed in by the caller).
    pub(crate) fn add(&self, acc: &mut f64, values: &[banks_storage::Value]) {
        match self {
            Measure::Count => *acc += 1.0,
            Measure::Sum(col) => {
                if let Some(v) = values[*col as usize].as_f64() {
                    *acc += v;
                }
            }
        }
    }
}

/// A named, stored template instance (§4: "stored in the database, and
/// given a hyperlink name, which is used to access the template").
#[derive(Debug, Clone)]
pub enum TemplateSpec {
    /// Cross-tab template.
    Crosstab(CrosstabSpec),
    /// Hierarchical group-by template.
    GroupBy(GroupBySpec),
    /// Folder-view template.
    Folder(FolderSpec),
    /// Chart template.
    Chart(ChartSpec),
}

/// A registry of named template instances, the target of
/// [`Hyperlink::Template`] links.
#[derive(Debug, Clone, Default)]
pub struct TemplateRegistry {
    templates: HashMap<String, TemplateSpec>,
}

impl TemplateRegistry {
    /// Empty registry.
    pub fn new() -> TemplateRegistry {
        TemplateRegistry::default()
    }

    /// Store a template under a hyperlink name.
    pub fn register(&mut self, name: impl Into<String>, spec: TemplateSpec) {
        self.templates.insert(name.into(), spec);
    }

    /// Fetch a template by name.
    pub fn get(&self, name: &str) -> Option<&TemplateSpec> {
        self.templates.get(name)
    }

    /// Resolve a [`Hyperlink::Template`] link.
    pub fn resolve(&self, link: &Hyperlink) -> Option<&TemplateSpec> {
        match link {
            Hyperlink::Template(name) => self.get(name),
            _ => None,
        }
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.templates.keys().map(|s| s.as_str()).collect();
        names.sort();
        names
    }
}

/// Evaluate any template to a displayable result.
#[derive(Debug, Clone)]
pub enum TemplateOutput {
    /// Cross-tab grid.
    Crosstab(Crosstab),
    /// One level of a group-by hierarchy.
    GroupBy(GroupByLevel),
    /// Folder tree.
    Folder(FolderNode),
    /// Chart data.
    Chart(ChartData),
}

/// Evaluate a template at its root (a group-by template yields its top
/// level).
pub fn evaluate(db: &Database, spec: &TemplateSpec) -> StorageResult<TemplateOutput> {
    Ok(match spec {
        TemplateSpec::Crosstab(s) => TemplateOutput::Crosstab(crosstab::evaluate(db, s)?),
        TemplateSpec::GroupBy(s) => TemplateOutput::GroupBy(groupby::drill(db, s, &[])?),
        TemplateSpec::Folder(s) => TemplateOutput::Folder(folder::evaluate(db, s)?),
        TemplateSpec::Chart(s) => TemplateOutput::Chart(chart::evaluate(db, s)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_datagen::thesis::{generate, ThesisConfig};
    use banks_storage::RelationId;

    #[test]
    fn registry_roundtrip_and_link_resolution() {
        let mut reg = TemplateRegistry::new();
        reg.register(
            "students-by-dept",
            TemplateSpec::GroupBy(GroupBySpec {
                relation: RelationId(3),
                levels: vec![2],
            }),
        );
        assert_eq!(reg.names(), vec!["students-by-dept"]);
        let link = Hyperlink::Template("students-by-dept".into());
        assert!(reg.resolve(&link).is_some());
        assert!(reg.get("missing").is_none());
        assert!(reg.resolve(&Hyperlink::Relation(RelationId(0))).is_none());
    }

    #[test]
    fn evaluate_dispatches_all_variants() {
        let d = generate(ThesisConfig::tiny(1)).unwrap();
        let student = d.db.relation_id("Student").unwrap();
        let specs = [
            TemplateSpec::Crosstab(CrosstabSpec {
                relation: student,
                row_attr: 2,
                col_attr: 3,
                measure: Measure::Count,
            }),
            TemplateSpec::GroupBy(GroupBySpec {
                relation: student,
                levels: vec![2, 3],
            }),
            TemplateSpec::Folder(FolderSpec {
                relation: student,
                levels: vec![2],
                max_leaves: 5,
            }),
            TemplateSpec::Chart(ChartSpec {
                relation: student,
                label_attr: 2,
                measure: Measure::Count,
                kind: ChartKind::Bar,
            }),
        ];
        for spec in &specs {
            evaluate(&d.db, spec).unwrap();
        }
    }
}

//! Folder-view template (§4).
//!
//! "Folder views are similar to grouping, but are modeled after the folder
//! view of files and directories supported in many environments such as
//! Windows Explorer." Where the group-by template is drilled lazily one
//! level at a time, the folder view materializes the whole tree up front
//! (folders = group values, leaves = tuples).

use banks_storage::{Database, RelationId, Rid, StorageError, StorageResult, Value};

/// Specification: a relation, grouping attributes, and a leaf cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FolderSpec {
    /// Relation to organize.
    pub relation: RelationId,
    /// Folder levels, outermost first.
    pub levels: Vec<u32>,
    /// Maximum tuples listed per innermost folder (0 = unlimited).
    pub max_leaves: usize,
}

/// A folder node: a labelled group with sub-folders or leaf tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct FolderNode {
    /// Folder label (the group value; root uses the relation name).
    pub label: String,
    /// Total tuples under this folder.
    pub count: usize,
    /// Sub-folders (empty at the innermost level).
    pub children: Vec<FolderNode>,
    /// Leaf tuples (populated only at the innermost level, capped by
    /// `max_leaves`).
    pub leaves: Vec<Rid>,
}

impl FolderNode {
    /// Depth of the tree under this node (a leaf-only node has depth 1).
    #[cfg(test)]
    pub(crate) fn depth(&self) -> usize {
        1 + self.children.iter().map(|c| c.depth()).max().unwrap_or(0)
    }
}

/// Materialize the folder tree.
pub fn evaluate(db: &Database, spec: &FolderSpec) -> StorageResult<FolderNode> {
    let table = db.table(spec.relation);
    for &level in &spec.levels {
        if level as usize >= table.schema().arity() {
            return Err(StorageError::UnknownColumn {
                relation: table.schema().name.clone(),
                column: format!("#{level}"),
            });
        }
    }
    let all: Vec<Rid> = table.scan().map(|(rid, _)| rid).collect();
    build(db, spec, table.schema().name.clone(), &all, 0)
}

fn build(
    db: &Database,
    spec: &FolderSpec,
    label: String,
    rids: &[Rid],
    depth: usize,
) -> StorageResult<FolderNode> {
    if depth == spec.levels.len() {
        let mut leaves = rids.to_vec();
        if spec.max_leaves > 0 {
            leaves.truncate(spec.max_leaves);
        }
        return Ok(FolderNode {
            label,
            count: rids.len(),
            children: Vec::new(),
            leaves,
        });
    }
    let attr = spec.levels[depth] as usize;
    let mut groups: Vec<(Value, Vec<Rid>)> = Vec::new();
    for &rid in rids {
        let v = db.tuple(rid)?.values()[attr].clone();
        match groups.iter_mut().find(|(g, _)| *g == v) {
            Some((_, members)) => members.push(rid),
            None => groups.push((v, vec![rid])),
        }
    }
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    let mut children = Vec::with_capacity(groups.len());
    for (value, members) in groups {
        children.push(build(db, spec, value.to_string(), &members, depth + 1)?);
    }
    Ok(FolderNode {
        label,
        count: rids.len(),
        children,
        leaves: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_datagen::thesis::{generate, ThesisConfig};

    #[test]
    fn two_level_tree_structure() {
        let d = generate(ThesisConfig::tiny(1)).unwrap();
        let spec = FolderSpec {
            relation: d.db.relation_id("Student").unwrap(),
            levels: vec![2, 3],
            max_leaves: 0,
        };
        let root = evaluate(&d.db, &spec).unwrap();
        assert_eq!(root.label, "Student");
        assert_eq!(root.count, 80);
        assert_eq!(root.depth(), 3, "root → dept → program");
        // Counts are consistent at every level.
        let dept_sum: usize = root.children.iter().map(|c| c.count).sum();
        assert_eq!(dept_sum, 80);
        for dept in &root.children {
            let prog_sum: usize = dept.children.iter().map(|c| c.count).sum();
            assert_eq!(prog_sum, dept.count);
            for prog in &dept.children {
                assert_eq!(prog.leaves.len(), prog.count);
            }
        }
    }

    #[test]
    fn max_leaves_caps_listing_not_count() {
        let d = generate(ThesisConfig::tiny(2)).unwrap();
        let spec = FolderSpec {
            relation: d.db.relation_id("Student").unwrap(),
            levels: vec![2],
            max_leaves: 3,
        };
        let root = evaluate(&d.db, &spec).unwrap();
        for dept in &root.children {
            assert!(dept.leaves.len() <= 3);
            assert!(dept.count >= dept.leaves.len());
        }
    }

    #[test]
    fn zero_levels_gives_flat_listing() {
        let d = generate(ThesisConfig::tiny(3)).unwrap();
        let spec = FolderSpec {
            relation: d.db.relation_id("Department").unwrap(),
            levels: vec![],
            max_leaves: 0,
        };
        let root = evaluate(&d.db, &spec).unwrap();
        assert_eq!(root.depth(), 1);
        assert_eq!(root.leaves.len(), root.count);
        assert!(root.children.is_empty());
    }

    #[test]
    fn bad_level_errors() {
        let d = generate(ThesisConfig::tiny(4)).unwrap();
        let spec = FolderSpec {
            relation: d.db.relation_id("Student").unwrap(),
            levels: vec![42],
            max_leaves: 0,
        };
        assert!(evaluate(&d.db, &spec).is_err());
    }
}

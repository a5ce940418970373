//! Tuples and row identifiers.
//!
//! BANKS keeps only RIDs in its in-memory graph (§3: "the in-memory node
//! representation need not store any attribute of the corresponding tuple
//! other than the RID"). [`Rid`] is therefore a compact 8-byte identifier:
//! a relation id plus a row slot, stable across deletions.

use crate::value::Value;
use std::fmt;

/// Identifier of a relation within a [`crate::Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelationId(pub u32);

impl RelationId {
    /// The integer index of this relation in the catalog.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RelationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A stable row identifier: relation + slot within the relation's
/// tuple vector. Slots are never reused, so a `Rid` either resolves to the
/// same tuple forever or (after deletion) to nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// The owning relation.
    pub relation: RelationId,
    /// Slot index within the relation.
    pub slot: u32,
}

impl Rid {
    /// Construct a rid from raw parts.
    pub fn new(relation: RelationId, slot: u32) -> Rid {
        Rid { relation, slot }
    }
}

impl fmt::Display for Rid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.relation, self.slot)
    }
}

/// A stored tuple: a boxed slice of values, matching its relation's arity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    values: Box<[Value]>,
}

impl Tuple {
    /// Create a tuple from values. Arity/type checks happen at table level.
    pub(crate) fn new(values: Vec<Value>) -> Tuple {
        Tuple {
            values: values.into_boxed_slice(),
        }
    }

    /// Borrow the attribute values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Mutable access for in-place updates (used by `Table::update`).
    pub(crate) fn get_mut(&mut self, idx: usize) -> Option<&mut Value> {
        self.values.get_mut(idx)
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rid_display() {
        let rid = Rid::new(RelationId(2), 17);
        assert_eq!(rid.to_string(), "R2:17");
    }

    #[test]
    fn rid_ordering_groups_by_relation() {
        let a = Rid::new(RelationId(0), 99);
        let b = Rid::new(RelationId(1), 0);
        assert!(a < b);
    }

    #[test]
    fn tuple_accessors() {
        let t = Tuple::new(vec![Value::Int(1), Value::text("x")]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.values().get(1), Some(&Value::text("x")));
        assert_eq!(t.values().get(2), None);
        assert_eq!(t.values().len(), 2);
    }
}

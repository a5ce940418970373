//! Name and word pools for the synthetic databases.
//!
//! The pools deliberately avoid the tokens of planted anecdote entities
//! (mohan, gray, reuter, soumen, sunita, byron, chakrabarti, sarawagi,
//! dom, stonebraker, seltzer, sudarshan, aditya) so the §5.1 anecdote
//! queries match exactly the planted tuples.

/// First names for synthetic authors/students/faculty.
pub const FIRST_NAMES: &[&str] = &[
    "Alice", "Benjamin", "Carla", "Daniel", "Elena", "Felix", "Grace", "Hector", "Irene", "Jorge",
    "Katrin", "Liam", "Mona", "Nikhil", "Olga", "Pavel", "Qing", "Rachel", "Stefan", "Tara",
    "Umberto", "Vera", "Walter", "Ximena", "Yusuf", "Zelda", "Anders", "Bridget", "Cesar", "Delia",
    "Edwin", "Farah", "Gunnar", "Hilda", "Ivan", "Jasmine", "Kenji", "Lucia", "Marcus", "Nadia",
    "Oscar", "Priya", "Quentin", "Rosa", "Sergei", "Tomas", "Ursula", "Viktor", "Wanda", "Xavier",
    "Yvonne", "Zachary", "Amara", "Boris", "Celine", "Dmitri", "Esther", "Fabio", "Greta",
    "Hassan",
];

/// Last names for synthetic authors/students/faculty.
pub const LAST_NAMES: &[&str] = &[
    "Abramov",
    "Bennett",
    "Castillo",
    "Dubois",
    "Eriksen",
    "Fischer",
    "Gallagher",
    "Hoffman",
    "Ibrahim",
    "Jankovic",
    "Kowalski",
    "Lindqvist",
    "Marchetti",
    "Novak",
    "Oliveira",
    "Petrov",
    "Quirke",
    "Rossi",
    "Schneider",
    "Takahashi",
    "Ulrich",
    "Vasquez",
    "Weber",
    "Xanthos",
    "Yamamoto",
    "Zimmerman",
    "Almeida",
    "Bergstrom",
    "Chandra",
    "Delgado",
    "Engel",
    "Fontaine",
    "Guerrero",
    "Haugen",
    "Iyer",
    "Jensen",
    "Kaplan",
    "Larsson",
    "Moreau",
    "Nielsen",
    "Okafor",
    "Pellegrini",
    "Quist",
    "Rahman",
    "Santos",
    "Tanaka",
    "Urbina",
    "Villanueva",
    "Wagner",
    "Xiang",
    "Young",
    "Zhukov",
    "Acosta",
    "Bianchi",
    "Cervantes",
    "Dietrich",
    "Espinoza",
    "Fjeld",
    "Gruber",
    "Horvath",
    "Ishikawa",
    "Joshi",
    "Klein",
    "Lombardi",
    "Mathur",
    "Nakamura",
    "Ostrowski",
    "Pires",
    "Quinn",
    "Rivera",
    "Sorensen",
    "Thorne",
    "Udell",
    "Varga",
    "Winter",
    "Xylander",
    "Yilmaz",
    "Zapata",
];

/// Topic words for synthetic paper/thesis titles.
pub const TITLE_WORDS: &[&str] = &[
    "adaptive",
    "aggregation",
    "algebra",
    "algorithms",
    "analysis",
    "approximate",
    "architecture",
    "association",
    "benchmarking",
    "buffering",
    "caching",
    "classification",
    "clustering",
    "compression",
    "concurrency",
    "consistency",
    "constraints",
    "cost",
    "cube",
    "data",
    "database",
    "decision",
    "declarative",
    "deductive",
    "dependencies",
    "design",
    "detection",
    "discovery",
    "distributed",
    "dynamic",
    "efficient",
    "estimation",
    "evaluation",
    "execution",
    "extraction",
    "federated",
    "filtering",
    "framework",
    "frequent",
    "functional",
    "graphs",
    "heterogeneous",
    "hierarchical",
    "incremental",
    "indexing",
    "inference",
    "integration",
    "interactive",
    "itemsets",
    "joins",
    "knowledge",
    "language",
    "learning",
    "locking",
    "logging",
    "maintenance",
    "materialized",
    "measurement",
    "mediators",
    "memory",
    "mining",
    "model",
    "monitoring",
    "multimedia",
    "networks",
    "normalization",
    "object",
    "online",
    "optimization",
    "parallel",
    "partitioning",
    "patterns",
    "performance",
    "persistent",
    "planning",
    "prediction",
    "processing",
    "protocols",
    "quality",
    "queries",
    "query",
    "ranking",
    "recovery",
    "relational",
    "replication",
    "retrieval",
    "rules",
    "sampling",
    "scalable",
    "scheduling",
    "schema",
    "search",
    "semantics",
    "semistructured",
    "sequences",
    "serializability",
    "similarity",
    "spatial",
    "statistics",
    "storage",
    "streams",
    "structures",
    "summarization",
    "systems",
    "techniques",
    "temporal",
    "transaction",
    "transformation",
    "trees",
    "tuning",
    "verification",
    "views",
    "visualization",
    "warehousing",
    "workflow",
    "workloads",
];

/// Department names for the thesis database (the planted "Computer Science
/// and Engineering" department is added separately by the generator).
pub(crate) const DEPARTMENTS: &[&str] = &[
    "Electrical Power Systems",
    "Mechanical Design",
    "Civil Structures",
    "Chemical Processes",
    "Aerospace Propulsion",
    "Metallurgy and Materials",
    "Industrial Management",
    "Applied Mathematics",
    "Physics of Semiconductors",
    "Environmental Sciences",
];

/// Degree programs for the thesis database.
pub(crate) const PROGRAMS: &[&str] = &["MTech", "PhD", "Dual Degree", "MS by Research"];

/// Part-name words for the TPC-D-style catalog.
pub(crate) const PART_WORDS: &[&str] = &[
    "anodized",
    "brushed",
    "burnished",
    "chocolate",
    "cornflower",
    "forest",
    "frosted",
    "lavender",
    "metallic",
    "midnight",
    "navajo",
    "polished",
    "powder",
    "rosy",
    "spring",
    "steel",
    "thistle",
    "turquoise",
];

/// Part-kind words for the TPC-D-style catalog.
pub(crate) const PART_KINDS: &[&str] = &[
    "bearing", "bolt", "bracket", "casing", "coupling", "flange", "gasket", "gear", "housing",
    "pin", "pulley", "rivet", "rotor", "shaft", "spring", "valve", "washer", "widget",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Tokens reserved for planted anecdote entities must never appear in
    /// the random pools, or anecdote queries would match noise tuples.
    #[test]
    fn pools_avoid_planted_tokens() {
        let reserved = [
            "mohan",
            "ahuja",
            "kamat",
            "gray",
            "reuter",
            "soumen",
            "sunita",
            "byron",
            "chakrabarti",
            "sarawagi",
            "stonebraker",
            "seltzer",
            "sudarshan",
            "aditya",
            "surprising",
        ];
        let pools: Vec<&str> = FIRST_NAMES
            .iter()
            .chain(LAST_NAMES)
            .chain(TITLE_WORDS)
            .chain(DEPARTMENTS)
            .chain(PROGRAMS)
            .chain(PART_WORDS)
            .chain(PART_KINDS)
            .copied()
            .collect();
        for word in pools {
            let lower = word.to_lowercase();
            for r in reserved {
                assert!(
                    !lower.contains(r),
                    "pool word `{word}` collides with planted token `{r}`"
                );
            }
        }
    }

    #[test]
    fn pools_are_nonempty_and_unique() {
        fn assert_unique(pool: &[&str]) {
            let mut sorted: Vec<_> = pool.to_vec();
            sorted.sort();
            let before = sorted.len();
            sorted.dedup();
            assert_eq!(before, sorted.len());
            assert!(!pool.is_empty());
        }
        assert_unique(FIRST_NAMES);
        assert_unique(LAST_NAMES);
        assert_unique(TITLE_WORDS);
        assert_unique(DEPARTMENTS);
        assert_unique(PROGRAMS);
        assert_unique(PART_WORDS);
        assert_unique(PART_KINDS);
    }
}

//! Synthetic thesis database.
//!
//! Models the paper's second dataset: "information about Masters and Phd
//! dissertations in IIT Bombay, and its graph had thousands of nodes and
//! tens of thousands of edges" (§5). Schema: Department, Program, Faculty,
//! Student, Thesis; a thesis references its student author and its faculty
//! advisor, while students and faculty reference their department.
//!
//! Planted entities reproduce the §5.1 anecdotes:
//!
//! * the "Computer Science and Engineering" department, with more faculty
//!   and students than any other department, so that the query
//!   "computer engineering" ranks the department above theses whose titles
//!   merely contain the two words;
//! * faculty "S. Sudarshan" and student "B. Aditya" with a thesis advised
//!   by Sudarshan — the "sudarshan aditya" anecdote.

use crate::names::{DEPARTMENTS, FIRST_NAMES, LAST_NAMES, PROGRAMS, TITLE_WORDS};
use crate::rng::Rng;
use banks_storage::{ColumnType, Database, RelationSchema, StorageResult, Value};

/// Size knobs for the thesis database.
#[derive(Debug, Clone, PartialEq)]
pub struct ThesisConfig {
    /// PRNG seed.
    pub seed: u64,
    /// Synthetic departments (the CSE department comes on top).
    pub departments: usize,
    /// Faculty members.
    pub faculty: usize,
    /// Students.
    pub students: usize,
    /// Theses (each by a distinct student).
    pub theses: usize,
    /// Fraction of everything assigned to the planted CSE department.
    pub cse_share: f64,
}

impl ThesisConfig {
    /// Unit-test scale (hundreds of tuples).
    pub fn tiny(seed: u64) -> ThesisConfig {
        ThesisConfig {
            seed,
            departments: 4,
            faculty: 20,
            students: 80,
            theses: 60,
            cse_share: 0.4,
        }
    }
}

/// Planted entity ids for the thesis anecdotes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThesisPlanted {
    /// Department id of "Computer Science and Engineering".
    pub cse_dept: String,
    /// Faculty id of S. Sudarshan.
    pub sudarshan: String,
    /// Student id of B. Aditya.
    pub aditya: String,
    /// Thesis id of Aditya's thesis (advised by Sudarshan).
    pub aditya_thesis: String,
}

/// A generated thesis database plus planted ground truth.
#[derive(Debug, Clone)]
pub struct ThesisDataset {
    /// The relational database.
    pub db: Database,
    /// Planted ids.
    pub planted: ThesisPlanted,
    /// Config used.
    pub config: ThesisConfig,
}

/// Create the thesis schema in a fresh database.
pub(crate) fn thesis_schema() -> StorageResult<Database> {
    let mut db = Database::new("thesis");
    db.create_relation(
        RelationSchema::builder("Department")
            .column("DeptId", ColumnType::Text)
            .column("DeptName", ColumnType::Text)
            .primary_key(&["DeptId"])
            .build()?,
    )?;
    db.create_relation(
        RelationSchema::builder("Program")
            .column("ProgramId", ColumnType::Text)
            .column("ProgramName", ColumnType::Text)
            .primary_key(&["ProgramId"])
            .build()?,
    )?;
    db.create_relation(
        RelationSchema::builder("Faculty")
            .column("FacultyId", ColumnType::Text)
            .column("FacultyName", ColumnType::Text)
            .column("DeptId", ColumnType::Text)
            .primary_key(&["FacultyId"])
            .foreign_key(&["DeptId"], "Department")
            .build()?,
    )?;
    db.create_relation(
        RelationSchema::builder("Student")
            .column("RollNo", ColumnType::Text)
            .column("StudentName", ColumnType::Text)
            .column("DeptId", ColumnType::Text)
            .column("ProgramId", ColumnType::Text)
            .primary_key(&["RollNo"])
            .foreign_key(&["DeptId"], "Department")
            .foreign_key(&["ProgramId"], "Program")
            .build()?,
    )?;
    db.create_relation(
        RelationSchema::builder("Thesis")
            .column("ThesisId", ColumnType::Text)
            .column("Title", ColumnType::Text)
            .column("RollNo", ColumnType::Text)
            .column("Advisor", ColumnType::Text)
            .primary_key(&["ThesisId"])
            .foreign_key(&["RollNo"], "Student")
            .foreign_key(&["Advisor"], "Faculty")
            .build()?,
    )?;
    Ok(db)
}

/// Generate a full thesis dataset.
pub fn generate(config: ThesisConfig) -> StorageResult<ThesisDataset> {
    let mut rng = Rng::new(config.seed);
    let mut db = thesis_schema()?;

    // Departments: planted CSE first, then synthetic ones.
    let cse = "DEPTCSE".to_string();
    db.insert(
        "Department",
        vec![
            Value::text(&cse),
            Value::text("Computer Science and Engineering"),
        ],
    )?;
    let mut dept_ids = vec![cse.clone()];
    for i in 0..config.departments.saturating_sub(1) {
        let id = format!("DEPT{i:02}");
        db.insert(
            "Department",
            vec![
                Value::text(&id),
                Value::text(DEPARTMENTS[i % DEPARTMENTS.len()]),
            ],
        )?;
        dept_ids.push(id);
    }

    // Programs.
    let mut program_ids = Vec::new();
    for (i, name) in PROGRAMS.iter().enumerate() {
        let id = format!("PROG{i}");
        db.insert("Program", vec![Value::text(&id), Value::text(*name)])?;
        program_ids.push(id);
    }

    // The CSE department absorbs `cse_share` of faculty and students,
    // making it the hub the "computer engineering" anecdote needs.
    let pick_dept = |rng: &mut Rng| -> String {
        if rng.chance(config.cse_share) {
            dept_ids[0].clone()
        } else {
            dept_ids[rng.range(0, dept_ids.len())].clone()
        }
    };

    // Faculty (Sudarshan planted first, in CSE).
    let sudarshan = "FACSUDARSHAN".to_string();
    db.insert(
        "Faculty",
        vec![
            Value::text(&sudarshan),
            Value::text("S. Sudarshan"),
            Value::text(&cse),
        ],
    )?;
    let mut faculty_ids = vec![sudarshan.clone()];
    for i in 0..config.faculty.saturating_sub(1) {
        let id = format!("FAC{i:04}");
        let name = format!("{} {}", rng.pick(FIRST_NAMES), rng.pick(LAST_NAMES));
        let dept = pick_dept(&mut rng);
        db.insert(
            "Faculty",
            vec![Value::text(&id), Value::text(name), Value::text(dept)],
        )?;
        faculty_ids.push(id);
    }

    // Students (Aditya planted first, in CSE).
    let aditya = "ROLLADITYA".to_string();
    db.insert(
        "Student",
        vec![
            Value::text(&aditya),
            Value::text("B. Aditya"),
            Value::text(&cse),
            Value::text(&program_ids[1 % program_ids.len()]),
        ],
    )?;
    let mut student_ids = vec![aditya.clone()];
    for i in 0..config.students.saturating_sub(1) {
        let id = format!("ROLL{i:05}");
        let name = format!("{} {}", rng.pick(FIRST_NAMES), rng.pick(LAST_NAMES));
        let dept = pick_dept(&mut rng);
        let program = program_ids[rng.range(0, program_ids.len())].clone();
        db.insert(
            "Student",
            vec![
                Value::text(&id),
                Value::text(name),
                Value::text(dept),
                Value::text(program),
            ],
        )?;
        student_ids.push(id);
    }

    // Theses: Aditya's planted thesis first, then synthetic ones by
    // distinct students. ~8% of titles contain "computer" or
    // "engineering" so the anecdote query has title-only competitors.
    let aditya_thesis = "THADITYA".to_string();
    db.insert(
        "Thesis",
        vec![
            Value::text(&aditya_thesis),
            Value::text("Resource Scheduling for Database Query Processing"),
            Value::text(&aditya),
            Value::text(&sudarshan),
        ],
    )?;
    let count = config.theses.min(student_ids.len() - 1);
    for i in 0..count {
        let id = format!("TH{i:05}");
        let n_words = rng.range(3, 7);
        let mut words: Vec<&str> = (0..n_words).map(|_| *rng.pick(TITLE_WORDS)).collect();
        words.dedup();
        let mut title = words.join(" ");
        if rng.chance(0.05) {
            title = format!("computer {title}");
        } else if rng.chance(0.04) {
            title = format!("{title} engineering");
        }
        let student = &student_ids[i + 1]; // skip Aditya; one thesis each
        let advisor = &faculty_ids[rng.range(0, faculty_ids.len())];
        db.insert(
            "Thesis",
            vec![
                Value::text(&id),
                Value::text(title),
                Value::text(student),
                Value::text(advisor),
            ],
        )?;
    }

    Ok(ThesisDataset {
        db,
        planted: ThesisPlanted {
            cse_dept: cse,
            sudarshan,
            aditya,
            aditya_thesis,
        },
        config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = generate(ThesisConfig::tiny(1)).unwrap();
        let b = generate(ThesisConfig::tiny(1)).unwrap();
        assert_eq!(a.db.total_tuples(), b.db.total_tuples());
        assert_eq!(a.db.link_count(), b.db.link_count());
    }

    #[test]
    fn cse_is_the_biggest_hub() {
        let d = generate(ThesisConfig::tiny(2)).unwrap();
        let dept = d.db.relation("Department").unwrap();
        let cse_rid = dept.lookup_pk(&[Value::text(&d.planted.cse_dept)]).unwrap();
        let cse_deg = d.db.indegree(cse_rid);
        for (rid, _) in dept.scan() {
            if rid != cse_rid {
                assert!(
                    d.db.indegree(rid) < cse_deg,
                    "CSE must out-rank every other department"
                );
            }
        }
    }

    #[test]
    fn aditya_thesis_wired_to_sudarshan() {
        let d = generate(ThesisConfig::tiny(3)).unwrap();
        let thesis = d.db.relation("Thesis").unwrap();
        let rid = thesis
            .lookup_pk(&[Value::text(&d.planted.aditya_thesis)])
            .unwrap();
        let t = d.db.tuple(rid).unwrap();
        assert_eq!(t.values()[2].as_text(), Some("ROLLADITYA"));
        assert_eq!(t.values()[3].as_text(), Some("FACSUDARSHAN"));
    }

    #[test]
    fn every_thesis_has_unique_student() {
        let d = generate(ThesisConfig::tiny(4)).unwrap();
        let thesis = d.db.relation("Thesis").unwrap();
        let mut students: Vec<String> = thesis
            .scan()
            .map(|(_, t)| t.values()[2].as_text().unwrap().to_string())
            .collect();
        let before = students.len();
        students.sort();
        students.dedup();
        assert_eq!(before, students.len());
    }
}
